"""The CMP simulator: cores, L1s, directory, banked L2, memory.

Timing model (paper Table I): in-order cores retire one instruction per
cycle except on memory accesses; an L1 hit costs the instruction's own
cycle; an L1 miss stalls for the L1-to-L2-bank latency plus the bank's
hit latency, and an L2 miss additionally stalls for the memory zero-load
latency plus any bandwidth queueing at its memory controller. The
replacement walk of a zcache happens off the critical path while the
miss is outstanding (Section III), so it adds no stall — only tag-array
bandwidth and energy, which the statistics capture.

The model exists once, in two halves joined by a stream of L2-level
events. The **front end** (cores, L1s, directory) turns the cores'
access streams into ``(kind, core, address, is_write, work)`` events;
the **back end** (banked L2, bank ports, memory channel) charges each
event to its core's clock. The three ways to run a design point are the
three ways to join them:

- ``TraceDrivenRunner.capture()``: front end into a list;
- ``TraceDrivenRunner.replay()``: that list into a back end — required
  for OPT, and an order of magnitude faster for design sweeps;
- ``CMPSimulator.run()``: front end into back end event by event, with
  each L2 eviction fed back to invalidate the victim's L1 copies. That
  inclusion feedback changes the future L1 stream and is the only
  modelled difference between execution-driven and replayed results.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import chain, starmap
from typing import Callable, Optional

from repro.energy.cachecost import CacheCostModel
from repro.obs import NULL_SPANS, ObsContext
from repro.sim.config import CMPConfig
from repro.sim.directory import Directory
from repro.sim.l2 import BankedL2, bank_index


@dataclass
class CMPResult:
    """Everything the experiments need from one simulation."""

    label: str
    num_cores: int
    instructions: list[int]
    cycles: list[int]
    l1_accesses: int
    l1_misses: int
    l2_hits: int
    l2_misses: int
    l2_accesses: int
    l2_writebacks: int
    walk_tag_reads: int
    relocations: int
    bank_accesses: list[int]
    coherence_invalidations: int
    upgrades: int
    l2_bank_latency: int
    eviction_priorities: list[float] = field(default_factory=list)
    #: total demand-access delay from bank-port contention (only
    #: non-zero when cfg.bank_queueing is on)
    bank_queueing_cycles: int = 0

    @property
    def total_instructions(self) -> int:
        return sum(self.instructions)

    @property
    def total_cycles(self) -> int:
        """Wall-clock cycles: the slowest core defines the run length."""
        return max(self.cycles) if self.cycles else 0

    @property
    def aggregate_ipc(self) -> float:
        """Sum of per-core IPCs (multiprogrammed throughput metric)."""
        return sum(
            i / c for i, c in zip(self.instructions, self.cycles) if c > 0
        )

    @property
    def l2_mpki(self) -> float:
        """L2 misses per thousand instructions."""
        if self.total_instructions == 0:
            return 0.0
        return 1000.0 * self.l2_misses / self.total_instructions

    @property
    def l1_mpki(self) -> float:
        if self.total_instructions == 0:
            return 0.0
        return 1000.0 * self.l1_misses / self.total_instructions

    def tag_load_per_bank_cycle(self) -> float:
        """Tag-array accesses per bank per cycle (Section VI-D metric)."""
        if self.total_cycles == 0:
            return 0.0
        total_tag = self.l2_accesses + self.walk_tag_reads
        return total_tag / len(self.bank_accesses) / self.total_cycles

    def to_dict(self) -> dict:
        """JSON-serialisable form (checkpoint files, worker results)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CMPResult":
        """Rebuild a result from :meth:`to_dict` output (JSON-safe)."""
        return cls(**data)


def _bank_latency(cfg: CMPConfig) -> int:
    """L2 bank hit latency from the analytical array model."""
    design = cfg.l2_design
    bank_bytes = cfg.bank_blocks * cfg.line_bytes
    # The latency model is calibrated at 1 MB banks; scaled experiments
    # use the paper-size bank for latency so design comparisons see the
    # published 6-11 cycle spread rather than an artifact of scaling.
    nominal = max(bank_bytes, 1 << 20)
    cost = CacheCostModel(
        nominal,
        design.ways,
        levels=design.levels if design.kind == "z" else None,
        parallel_lookup=design.parallel_lookup,
    )
    return cost.hit_latency_cycles()


#: event kinds of the L2-level stream
MISS, WRITEBACK, UPGRADE = 0, 1, 2


@dataclass
class CapturedTrace:
    """The L1-filtered stream and everything needed to replay it."""

    events: list  # (kind, core, address, is_write, work_cycles)
    instructions: list[int]
    l1_accesses: int
    l1_misses: int
    upgrades: int
    coherence_invalidations: int

    def bank_demand_traces(self, num_banks: int) -> list[list[int]]:
        """Per-bank demand-address sequences (the OPT future traces).

        Uses the same :func:`~repro.sim.l2.bank_index` mapping as
        :class:`~repro.sim.l2.BankedL2`, so OPT's future traces can
        never drift from the banks the demand accesses actually reach.
        """
        traces: list[list[int]] = [[] for _ in range(num_banks)]
        for kind, _core, address, _w, _work in self.events:
            if kind == MISS:
                traces[bank_index(address, num_banks)].append(address)
        return traces


class _FrontEnd:
    """Cores -> L1s -> directory: everything above the L2, written once.

    Reads the cores round-robin, each a block at a time, filters each
    access through its core's L1 and the directory, and hands every
    L2-level event — ``(kind, core, address, is_write, work)``, ``work``
    being the core's compute cycles since its previous event — to ``emit``
    (by default: appended to :attr:`events`). Nothing here depends on
    the L2 design; the L2 reaches back only through
    :meth:`l1_invalidate`, for inclusion victims.

    The L1s are fixed-geometry, bit-selected, least-recently-used and
    never walk, relocate or pin, so they are not :class:`~repro.core.
    Cache` objects: :attr:`l1` is, per core and per set, one dict
    ``address -> dirty`` that :meth:`run` works on inline.
    ``tests/sim/test_flat_l1.py`` holds it to a real ``Cache`` step by
    step; the ``capture_digests`` and ``cmp_run_pins`` goldens pin
    every event and counter.
    """

    def __init__(
        self,
        cfg: CMPConfig,
        emit: Optional[Callable[[tuple], object]] = None,
        obs: Optional[ObsContext] = None,
    ) -> None:
        self.cfg = cfg
        self.obs = obs
        self.events: list = []
        self.emit = emit if emit is not None else self.events.append
        # Dict order is recency order (a hit re-inserts its key): the
        # first key is the victim, len() < l1_ways is a free slot.
        # Only run() and l1_invalidate() mutate these.
        self.l1: list[list[dict[int, bool]]] = [
            [{} for _ in range(cfg.l1_blocks // cfg.l1_ways)]
            for _ in range(cfg.num_cores)
        ]
        self.l1_accesses = [0] * cfg.num_cores
        self.l1_misses = [0] * cfg.num_cores
        self.directory = Directory(
            cfg.num_cores,
            obs=obs.scoped("directory") if obs is not None else None,
        )

    def l1_invalidate(self, core: int, address: int) -> None:
        """Kill ``core``'s L1 copy; a dirty one writes back to the L2."""
        sets = self.l1[core]
        dirty = sets[address & (len(sets) - 1)].pop(address, False)
        self.directory.l1_eviction(address, core)
        if dirty:
            self.emit((WRITEBACK, core, address, True, 0))

    def run(
        self, workload, instructions_per_core: int, seed: int
    ) -> CapturedTrace:
        """Run every core to its instruction budget; returns the totals
        (and whatever :attr:`events` recorded).

        Step order within one access is contract: ``emit`` may re-enter
        :meth:`l1_invalidate` (execution-driven inclusion victims), so a
        block is installed before its MISS goes out.
        """
        cfg = self.cfg
        emit = self.emit
        directory = self.directory
        l1_invalidate = self.l1_invalidate
        l1, l1_accesses, l1_misses = self.l1, self.l1_accesses, self.l1_misses
        ways = cfg.l1_ways
        set_mask = cfg.l1_blocks // ways - 1
        # Plain (gap, address, is_write) tuples zipped from each core's
        # blocks; the CoreAccess view (core_stream) costs what blocks save.
        blocks = [
            workload.core_blocks(c, cfg.l2_blocks, seed=seed, num_cores=cfg.num_cores)
            for c in range(cfg.num_cores)
        ]
        next_access = [chain.from_iterable(starmap(zip, b)).__next__ for b in blocks]
        instructions = [0] * cfg.num_cores
        last_event = [0] * cfg.num_cores  # instructions at the core's last event
        active = list(range(cfg.num_cores))
        rounds = 0  # every active core makes one access per round
        while active:
            retired = False
            rounds += 1
            for core in active:
                gap, address, is_write = next_access[core]()
                now = instructions[core] = instructions[core] + gap + 1
                lines = l1[core][address & set_mask]
                if address in lines:
                    if is_write and directory.is_shared(address):
                        # Write hit to a shared line: upgrade via the L2 bank.
                        for victim_core in directory.upgrade(address, core):
                            l1_invalidate(victim_core, address)
                        emit((UPGRADE, core, address, True, now - last_event[core]))
                        last_event[core] = now
                    lines[address] = lines.pop(address) or is_write
                else:
                    l1_misses[core] += 1
                    if len(lines) < ways:
                        lines[address] = is_write
                    else:
                        evicted = next(iter(lines))
                        writeback = lines.pop(evicted)
                        lines[address] = is_write
                        directory.l1_eviction(evicted, core)
                        if writeback:
                            emit((WRITEBACK, core, evicted, True, 0))
                    emit((MISS, core, address, is_write, now - last_event[core]))
                    last_event[core] = now
                    for victim_core in directory.fill(address, core, is_write):
                        l1_invalidate(victim_core, address)
                if now >= instructions_per_core:
                    retired = True
            if retired:
                for c in active:
                    if instructions[c] >= instructions_per_core:
                        l1_accesses[c] += rounds
                active = [
                    c for c in active if instructions[c] < instructions_per_core
                ]
        if self.obs is not None:
            for c in range(cfg.num_cores):
                metrics = self.obs.metrics.scoped(f"core{c}.l1")
                metrics.counter("accesses").value = l1_accesses[c]
                metrics.counter("misses").value = l1_misses[c]
        return CapturedTrace(
            events=self.events,
            instructions=instructions,
            l1_accesses=sum(l1_accesses),
            l1_misses=sum(l1_misses),
            upgrades=directory.stats.upgrades,
            coherence_invalidations=directory.stats.invalidations_sent,
        )


def _back_end(cfg: CMPConfig, l2: BankedL2):
    """The L2 timing model, written once: ``(step, result)``.

    ``step(event)`` charges one L2-level event to its core's clock —
    compute since the last event, L1-to-bank plus bank latency, bank
    port queueing, and on an L2 miss the walk's port occupancy, memory
    latency and channel queueing — and returns the block a miss evicted
    from the L2 (else None). ``result(trace)`` closes the clocks with
    each core's compute after its last event and assembles the
    :class:`CMPResult` from the L2's counters and the front end's
    totals.

    ``step`` runs once per event of every replay, so it is one straight
    function over names bound here, once: each bank's ``access`` and
    ``absorb_writeback`` and its port counter sit in lists indexed by
    ``address % banks`` (:func:`~repro.sim.l2.bank_index`, inline), the
    request latency of every (core, bank) pair is a table, and the
    core's clock is read and written once per event.

    *Memory channel.* Each controller serialises 64 B line transfers; a
    miss arriving at (core-local) time t starts service at max(t,
    controller-free time) and stalls its core for the difference; the
    writeback of a dirty victim occupies its own controller the same
    way and stalls nobody. Core clocks drift apart, so this is an
    approximation of global time — adequate because queueing only
    matters under sustained load, when clocks advance together.

    *Bank ports* (``cfg.bank_queueing``, off by default). Each bank
    serves one request per cycle; a zcache miss additionally occupies
    its bank's tag port for the walk's duration (ceil(reads/ways)
    cycles, since each way's tag array is a separate port), and demand
    accesses queue behind that. This is the pressure the paper's
    early-stop knob (``candidate_limit``) exists to relieve.
    """
    banks = cfg.l2_banks
    bank_latency = _bank_latency(cfg)
    request = [
        [cfg.l1_to_bank_latency(core, bank) + bank_latency for bank in range(banks)]
        for core in range(cfg.num_cores)
    ]
    access = [bank.access for bank in l2.banks]
    absorb_writeback = [bank.absorb_writeback for bank in l2.banks]
    port_counters = l2.port_counters
    writeback_hits = l2.writeback_hit_counter
    writeback_misses = l2.writeback_miss_counter
    queueing = cfg.bank_queueing
    ways = cfg.l2_design.ways
    walk_reads = [bank.stats.counters()["walk_tag_reads"] for bank in l2.banks]
    port_free = [0.0] * banks
    queueing_cycles = 0  # total demand delay at the bank ports
    mem_latency = cfg.mem_latency
    controllers = cfg.num_mcs
    transfer = cfg.line_transfer_cycles
    channel_free = [0.0] * controllers
    cycles = [0] * cfg.num_cores
    accounted = [0] * cfg.num_cores

    def step(event: tuple) -> Optional[int]:
        nonlocal queueing_cycles
        kind, core, address, is_write, work = event
        accounted[core] += work
        bank = address % banks
        port_counters[bank].value += 1
        if kind == WRITEBACK:
            cycles[core] += work
            if absorb_writeback[bank](address):
                writeback_hits.value += 1
            else:
                writeback_misses.value += 1
            return None
        now = cycles[core] + work + request[core][bank]
        if queueing:
            start = max(now, port_free[bank])
            port_free[bank] = start + 1.0
            delay = int(start - now)
            queueing_cycles += delay
            now += delay
            reads_before = walk_reads[bank].value
        if kind == UPGRADE:
            cycles[core] = now
            return None
        result = access[bank](address, is_write)
        if result.hit:
            cycles[core] = now
            return None
        if queueing:
            # The walk occupies the bank's tag port; it stalls nobody.
            reads = walk_reads[bank].value - reads_before
            if reads > 0:
                duration = -(-reads // ways)  # ceil
                port_free[bank] = max(now, port_free[bank]) + duration
        # The miss reaches its controller after the L2 round trip and
        # the zero-load latency, so that is the time it queues from.
        now += mem_latency
        controller = (address >> 4) % controllers
        start = max(now, channel_free[controller])
        channel_free[controller] = start + transfer
        now += int(start - now)
        evicted = result.evicted
        if result.writeback:  # takes bandwidth, stalls nobody
            controller = (evicted >> 4) % controllers
            channel_free[controller] = max(now, channel_free[controller]) + transfer
        cycles[core] = now
        return evicted

    def result(trace: CapturedTrace) -> CMPResult:
        for core, retired in enumerate(trace.instructions):
            cycles[core] += retired - accounted[core]
        priorities: list[float] = []
        for bank in l2.banks:
            if hasattr(bank.policy, "priorities"):
                priorities.extend(bank.policy.priorities)
        return CMPResult(
            label=cfg.l2_design.label(),
            num_cores=cfg.num_cores,
            instructions=list(trace.instructions),
            cycles=cycles,
            l1_accesses=trace.l1_accesses,
            l1_misses=trace.l1_misses,
            l2_hits=l2.hits,
            l2_misses=l2.misses,
            l2_accesses=l2.accesses + l2.writeback_hits + l2.writeback_misses,
            l2_writebacks=l2.writebacks_to_memory,
            walk_tag_reads=l2.walk_tag_reads,
            relocations=l2.relocations,
            bank_accesses=list(l2.bank_accesses),
            coherence_invalidations=trace.coherence_invalidations,
            upgrades=trace.upgrades,
            l2_bank_latency=bank_latency,
            eviction_priorities=priorities,
            bank_queueing_cycles=queueing_cycles,
        )

    return step, result


class CMPSimulator:
    """Execution-driven whole-system simulation: the front end feeding
    the back end event by event, with L2 evictions fed back into the
    L1s (inclusion) — the one path a captured trace cannot model."""

    def __init__(
        self,
        cfg: CMPConfig,
        workload,
        instructions_per_core: int = 100_000,
        seed: int = 0,
        policy_wrapper=None,
        obs: Optional[ObsContext] = None,
    ) -> None:
        if cfg.l2_design.policy == "opt":
            raise ValueError(
                "OPT needs a captured future trace; use TraceDrivenRunner"
            )
        self.cfg = cfg
        self.workload = workload
        self.instructions_per_core = instructions_per_core
        self.seed = seed
        self.policy_wrapper = policy_wrapper
        self.obs = obs

    def run(self) -> CMPResult:
        """Simulate until every core retires its instruction budget."""
        obs = self.obs
        l2 = BankedL2(
            self.cfg,
            policy_wrapper=self.policy_wrapper,
            obs=obs.scoped("l2") if obs is not None else None,
        )
        step, result = _back_end(self.cfg, l2)

        def feed(event: tuple) -> None:
            evicted = step(event)
            if evicted is not None:
                # Inclusion: kill the victim's L1 copies.
                for core in front.directory.inclusion_invalidate(evicted):
                    front.l1_invalidate(core, evicted)

        front = _FrontEnd(self.cfg, emit=feed, obs=obs)
        return result(
            front.run(self.workload, self.instructions_per_core, self.seed)
        )


class TraceDrivenRunner:
    """Capture the L2-level stream once; replay it per design.

    The capture pass is the front end alone, so the captured stream is
    independent of the L2 design; a replay is the back end alone.
    Replays therefore miss one feedback path — inclusion victims cannot
    re-dirty the L1 stream — which the paper's own trace-driven OPT
    runs share.
    """

    def __init__(
        self,
        cfg: CMPConfig,
        workload,
        instructions_per_core: int = 100_000,
        seed: int = 0,
    ) -> None:
        self.cfg = cfg
        self.workload = workload
        self.instructions_per_core = instructions_per_core
        self.seed = seed
        self._captured: Optional[CapturedTrace] = None

    @classmethod
    def from_captured(
        cls, cfg: CMPConfig, captured: CapturedTrace
    ) -> "TraceDrivenRunner":
        """A runner holding an already-captured stream.

        The parallel sweep engine captures each workload's stream once
        in the parent process and ships the :class:`CapturedTrace` to
        workers; a worker rebuilds a runner from it without needing the
        workload generator. ``capture`` is already satisfied, so the
        runner never reads a length or a seed.
        """
        runner = cls(cfg, workload=None)
        runner._captured = captured
        return runner

    def capture(self) -> CapturedTrace:
        """Phase 1: L1 filtering and coherence, recording L2 events."""
        if self._captured is None:
            self._captured = _FrontEnd(self.cfg).run(
                self.workload, self.instructions_per_core, self.seed
            )
        return self._captured

    def replay(
        self,
        design_cfg: CMPConfig,
        policy_wrapper=None,
        obs: Optional[ObsContext] = None,
    ) -> CMPResult:
        """Phase 2: run the captured stream through one L2 design."""
        captured = self.capture()
        cfg = design_cfg
        spans = obs.spans if obs is not None else NULL_SPANS
        opt_traces = None
        if cfg.l2_design.policy == "opt":
            opt_traces = captured.bank_demand_traces(cfg.l2_banks)
        with spans.span("replay.build", design=cfg.l2_design.label()):
            l2 = BankedL2(
                cfg,
                opt_traces=opt_traces,
                policy_wrapper=policy_wrapper,
                obs=obs.scoped("l2") if obs is not None else None,
            )
        step, result = _back_end(cfg, l2)
        with spans.span("replay.stream", events=len(captured.events)):
            for event in captured.events:
                step(event)
        return result(captured)
