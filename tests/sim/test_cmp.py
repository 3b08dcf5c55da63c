"""Tests for the CMP simulator (full and trace-driven modes)."""

import pytest

from repro.sim import CMPConfig, CMPSimulator, L2DesignConfig, TraceDrivenRunner
from repro.workloads import get_workload

CFG = CMPConfig()
INSTR = 1200  # per core; small but enough to exercise everything


def small_sim(workload="gcc", design=None, **kw):
    cfg = CFG.with_design(design) if design else CFG
    return CMPSimulator(
        cfg, get_workload(workload), instructions_per_core=INSTR, seed=3, **kw
    )


class TestFullMode:
    def test_runs_and_accounts(self):
        res = small_sim().run()
        assert res.num_cores == 32
        assert all(i >= INSTR for i in res.instructions)
        assert all(c >= i for c, i in zip(res.cycles, res.instructions))
        assert res.l1_accesses > 0
        assert res.l2_hits + res.l2_misses == res.l1_misses

    def test_deterministic(self):
        a = small_sim().run()
        b = small_sim().run()
        assert a.cycles == b.cycles
        assert a.l2_misses == b.l2_misses

    def test_ipc_bounded_by_one_per_core(self):
        res = small_sim().run()
        for i, c in zip(res.instructions, res.cycles):
            assert i / c <= 1.0

    def test_mpki_properties(self):
        res = small_sim().run()
        assert res.l2_mpki >= 0
        assert res.l1_mpki >= res.l2_mpki

    def test_opt_policy_rejected_in_full_mode(self):
        design = L2DesignConfig(kind="sa", ways=4, policy="opt")
        with pytest.raises(ValueError):
            small_sim(design=design)

    def test_coherence_active_for_shared_workload(self):
        res = small_sim(workload="streamcluster").run()
        assert res.coherence_invalidations > 0

    def test_bank_accesses_distributed(self):
        res = small_sim(workload="canneal").run()
        assert sum(1 for b in res.bank_accesses if b > 0) >= 6

    def test_zcache_walks_recorded(self):
        res = small_sim(design=L2DesignConfig(kind="z", ways=4, levels=2)).run()
        assert res.walk_tag_reads > 0
        assert res.label == "Z4/16-S"


class TestTraceMode:
    def make_runner(self, workload="gcc"):
        return TraceDrivenRunner(
            CFG, get_workload(workload), instructions_per_core=INSTR, seed=3
        )

    def test_capture_is_cached(self):
        runner = self.make_runner()
        assert runner.capture() is runner.capture()

    def test_replay_matches_full_mode_l1_stats(self):
        # Full mode feeds inclusion victims back into the L1s; trace
        # mode cannot, so L1 misses may differ by those few extra
        # invalidation-induced misses — accesses are identical.
        runner = self.make_runner()
        replayed = runner.replay(CFG)
        full = small_sim().run()
        assert replayed.l1_accesses == full.l1_accesses
        assert abs(replayed.l1_misses - full.l1_misses) <= max(
            10, full.coherence_invalidations
        )

    def test_replay_close_to_full_mode(self):
        # Trace mode drops the inclusion-victim feedback, so MPKI and
        # IPC differ slightly — but must stay close.
        runner = self.make_runner()
        replayed = runner.replay(CFG)
        full = small_sim().run()
        assert replayed.l2_misses == pytest.approx(full.l2_misses, rel=0.15)
        assert replayed.aggregate_ipc == pytest.approx(
            full.aggregate_ipc, rel=0.15
        )

    def test_replay_designs_share_capture(self):
        runner = self.make_runner()
        a = runner.replay(CFG)
        b = runner.replay(
            CFG.with_design(L2DesignConfig(kind="z", ways=4, levels=2))
        )
        assert a.l1_misses == b.l1_misses  # same captured stream
        assert a.label != b.label

    def test_opt_replay_runs_and_beats_lru(self):
        runner = self.make_runner(workload="soplex")
        import dataclasses

        lru = runner.replay(CFG)
        opt = runner.replay(
            CFG.with_design(
                dataclasses.replace(CFG.l2_design, policy="opt")
            )
        )
        assert opt.l2_misses <= lru.l2_misses

    def test_bank_demand_traces_partition(self):
        runner = self.make_runner()
        captured = runner.capture()
        traces = captured.bank_demand_traces(8)
        total = sum(len(t) for t in traces)
        misses = sum(1 for e in captured.events if e[0] == 0)
        assert total == misses
        for bank, trace in enumerate(traces):
            assert all(a % 8 == bank for a in trace)

    def test_cycles_at_least_instructions(self):
        res = self.make_runner().replay(CFG)
        for c, i in zip(res.cycles, res.instructions):
            assert c >= i

    def test_replay_polls_no_aggregate_per_event(self, monkeypatch):
        # A count, not a clock: BankedL2.total sums a counter over all
        # banks, so the per-event step must never call it — only
        # result() does, a fixed number of times however long the
        # stream is. Port counters follow bank_index event by event.
        from dataclasses import replace

        from repro.sim.l2 import BankedL2, bank_index

        calls = []
        total = BankedL2.total
        monkeypatch.setattr(
            BankedL2, "total", lambda l2, attr: calls.append(attr) or total(l2, attr)
        )
        captured = self.make_runner(workload="canneal").capture()
        events = captured.events
        cfg = replace(
            CFG.with_design(L2DesignConfig(kind="z", ways=4, levels=2)),
            bank_queueing=True,
        )
        per_replay = []
        for length in (300, len(events)):
            del calls[:]
            res = TraceDrivenRunner.from_captured(
                cfg, replace(captured, events=events[:length])
            ).replay(cfg)
            per_replay.append(len(calls))
            expected = [0] * 8
            for event in events[:length]:
                expected[bank_index(event[2], 8)] += 1
            assert res.bank_accesses == expected
            assert res.walk_tag_reads > 0
        assert len(events) > 1000
        assert per_replay[0] == per_replay[1] <= 8


class TestLatencySensitivity:
    def test_parallel_lookup_improves_hit_latency_bound_workload(self):
        # ammp is L2-hit heavy: parallel lookup (6cy vs 8cy banks) must
        # not make it slower.
        runner = TraceDrivenRunner(
            CFG, get_workload("ammp"), instructions_per_core=INSTR, seed=3
        )
        serial = runner.replay(CFG)
        parallel = runner.replay(
            CFG.with_design(
                L2DesignConfig(kind="sa", ways=4, hash_kind="h3",
                               parallel_lookup=True)
            )
        )
        assert parallel.aggregate_ipc >= serial.aggregate_ipc

    def test_more_ways_higher_bank_latency(self):
        runner = TraceDrivenRunner(
            CFG, get_workload("gcc"), instructions_per_core=INSTR, seed=3
        )
        r4 = runner.replay(CFG)
        r32 = runner.replay(
            CFG.with_design(L2DesignConfig(kind="sa", ways=32, hash_kind="h3"))
        )
        assert r32.l2_bank_latency > r4.l2_bank_latency

    def test_zcache_keeps_4way_latency(self):
        runner = TraceDrivenRunner(
            CFG, get_workload("gcc"), instructions_per_core=INSTR, seed=3
        )
        r4 = runner.replay(CFG)
        z52 = runner.replay(
            CFG.with_design(L2DesignConfig(kind="z", ways=4, levels=3))
        )
        assert z52.l2_bank_latency == r4.l2_bank_latency


class TestResultSerialization:
    def test_to_dict_round_trips(self):
        res = small_sim().run()
        clone = type(res).from_dict(res.to_dict())
        assert clone == res

    def test_from_captured_replays_identically(self):
        from repro.sim.cmp import TraceDrivenRunner as TDR

        runner = TDR(CFG, get_workload("gcc"), instructions_per_core=INSTR, seed=3)
        captured = runner.capture()
        rehosted = TDR.from_captured(CFG, captured)
        assert rehosted.replay(CFG) == runner.replay(CFG)


class TestMemoryQueueingParity:
    """Execution mode must stamp memory-channel demands at the same
    (post-latency) time replay does.

    The pre-fix bug — ``channel.demand(addr, cycles[core])`` with the
    pre-stall timestamp — cancels out under a uniform per-miss latency
    (the clock just runs a constant amount ahead), so the probe uses
    NUCA hop latencies to make the per-miss shift *vary* by bank, which
    makes the two timestamp conventions produce different queueing
    delays and different final cycle counts.
    """

    def make_probe(self, sharing=False):
        from dataclasses import replace

        from repro.workloads.spec import WorkloadSpec

        # The private probe isolates the memory channel; the sharing
        # one (threads writing lines other L1s hold) adds upgrades,
        # which occupy a bank port like any other L2 access.
        spec = WorkloadSpec(
            name="parity-probe", suite="mix", multithreaded=sharing,
            sharing_frac=0.5 if sharing else 0.0,
            mem_ratio=0.8, write_frac=0.3,
            patterns=(((1.0, {"kind": "uniform", "footprint_abs": 48}),)),
        )
        # SA-32 so the 48-line footprints never evict (no inclusion
        # feedback, the one modelled divergence between modes);
        # 8 B/cycle memory so the channel genuinely queues; NUCA hops
        # so per-miss latency varies by bank.
        cfg = replace(
            CMPConfig().with_design(
                L2DesignConfig(kind="sa", ways=32, hash_kind="h3")
            ),
            mem_bytes_per_cycle=8.0,
            nuca_hop_cycles=2.0,
        )
        return cfg, spec

    @pytest.mark.parametrize("sharing", [False, True])
    def test_execution_and_replay_agree_cycle_for_cycle(self, sharing):
        from dataclasses import replace

        cfg, spec = self.make_probe(sharing)
        for queueing in (False, True):
            cfg = replace(cfg, bank_queueing=queueing)
            full = CMPSimulator(
                cfg, spec, instructions_per_core=2000, seed=7
            ).run()
            rep = TraceDrivenRunner(
                cfg, spec, instructions_per_core=2000, seed=7
            ).replay(cfg)
            assert (full.upgrades > 0) == sharing
            assert full.l2_misses == rep.l2_misses
            assert full.bank_accesses == rep.bank_accesses
            assert full.cycles == rep.cycles
            assert full.bank_queueing_cycles == rep.bank_queueing_cycles
            assert (full.bank_queueing_cycles > 0) == queueing

    def test_contention_actually_exercised(self):
        # Guard against the probe silently losing its memory-channel
        # pressure: with queueing disabled the run must get faster.
        from dataclasses import replace

        cfg, spec = self.make_probe()
        contended = CMPSimulator(
            cfg, spec, instructions_per_core=2000, seed=7
        ).run()
        uncontended = CMPSimulator(
            replace(cfg, mem_bytes_per_cycle=1e9), spec,
            instructions_per_core=2000, seed=7,
        ).run()
        assert max(contended.cycles) > max(uncontended.cycles)
