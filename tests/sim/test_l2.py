"""Tests for the banked L2."""

import pytest

from repro.assoc import TrackedPolicy
from repro.sim import BankedL2, CMPConfig, L2DesignConfig
from repro.sim.l2 import bank_index


def small_cfg(**kw):
    design = kw.pop("design", L2DesignConfig(kind="sa", ways=4, hash_kind="h3"))
    return CMPConfig(l2_blocks=1024, l2_banks=8, l2_design=design, **kw)


class TestBanking:
    def test_bank_partitioning(self):
        for addr in range(100):
            assert bank_index(addr, 8) == addr % 8

    def test_access_routes_to_bank(self):
        l2 = BankedL2(small_cfg())
        out = l2.access(17, is_write=False)
        assert (out.address, out.hit, out.evicted) == (17, False, None)
        assert l2.bank_accesses == [0, 1, 0, 0, 0, 0, 0, 0]
        assert 17 in l2 and 17 in l2.banks[1]

    def test_per_bank_hash_functions_differ(self):
        cfg = small_cfg(design=L2DesignConfig(kind="z", ways=4, levels=2))
        l2 = BankedL2(cfg)
        h0 = l2.banks[0].array.hashes[0]
        h1 = l2.banks[1].array.hashes[0]
        assert any(h0(x) != h1(x) for x in range(1, 200))


class TestPolicies:
    @pytest.mark.parametrize(
        "policy", ["lru", "bucketed-lru", "fifo", "lfu", "random", "srrip"]
    )
    def test_policy_construction(self, policy):
        import dataclasses

        design = dataclasses.replace(small_cfg().l2_design, policy=policy)
        l2 = BankedL2(small_cfg(design=design))
        l2.access(1, False)
        l2.access(1, False)
        assert l2.hits == 1

    def test_opt_without_trace_rejected(self):
        import dataclasses

        design = dataclasses.replace(small_cfg().l2_design, policy="opt")
        with pytest.raises(ValueError):
            BankedL2(small_cfg(design=design))

    def test_opt_with_trace(self):
        import dataclasses

        design = dataclasses.replace(small_cfg().l2_design, policy="opt")
        cfg = small_cfg(design=design)
        traces = [[] for _ in range(8)]
        stream = [8 * i for i in range(5)] + [0, 8]
        for addr in stream:
            traces[addr % 8].append(addr)
        l2 = BankedL2(cfg, opt_traces=traces)
        for addr in stream:
            l2.access(addr, False)
        assert l2.hits == 2  # 0 and 8 re-referenced

    def test_policy_wrapper_applied(self):
        l2 = BankedL2(small_cfg(), policy_wrapper=TrackedPolicy)
        assert all(isinstance(b.policy, TrackedPolicy) for b in l2.banks)


class TestWritebacks:
    def test_writeback_hit_marks_dirty(self):
        l2 = BankedL2(small_cfg())
        l2.access(24, False)
        assert l2.writeback(24) is True
        assert l2.banks[0].is_dirty(24)
        assert l2.writeback_hits == 1

    def test_writeback_does_not_touch_policy(self):
        l2 = BankedL2(small_cfg())
        l2.access(0, False)
        l2.access(8, False)  # same bank
        stamp_before = l2.banks[0].policy.score(0)
        l2.writeback(0)
        assert l2.banks[0].policy.score(0) == stamp_before

    def test_writeback_miss_forwards_to_memory(self):
        l2 = BankedL2(small_cfg())
        assert l2.writeback(40) is False
        assert l2.writeback_misses == 1
        assert l2.writebacks_to_memory == 1


class TestAggregates:
    def test_stats_roll_up(self):
        l2 = BankedL2(small_cfg())
        for addr in range(64):
            l2.access(addr, False)
        for addr in range(64):
            l2.access(addr, False)
        assert l2.accesses == 128
        assert l2.hits == 64
        assert l2.misses == 64

    def test_walk_stats_for_zcache_only(self):
        sa = BankedL2(small_cfg())
        assert sa.walk_stats() is None
        z = BankedL2(small_cfg(design=L2DesignConfig(kind="z", ways=4, levels=2)))
        for addr in range(2000):
            z.access(addr, False)
        ws = z.walk_stats()
        assert ws is not None
        assert ws.walks == 2000


class TestBankIndex:
    def test_shared_mapping_function(self):
        # Demand accesses, writebacks and membership all land in the
        # bank bank_index names (the back end's step is held to the
        # same counters by tests/sim/test_cmp.py).
        l2 = BankedL2(small_cfg())
        for addr in (0, 1, 7, 8, 1023, 65537):
            bank = bank_index(addr, 8)
            before = l2.bank_accesses[bank]
            l2.access(addr, False)
            l2.writeback(addr)
            assert l2.bank_accesses[bank] == before + 2
            assert addr in l2.banks[bank] and addr in l2

    def test_captured_trace_uses_same_mapping(self):
        # The bug this guards against: CapturedTrace re-implementing the
        # interleaving locally and drifting from BankedL2's.
        import repro.sim.cmp as cmp_mod
        import repro.sim.l2 as l2_mod

        assert cmp_mod.bank_index is l2_mod.bank_index
