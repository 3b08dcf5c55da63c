"""The banked, shared L2 (NUCA per Table I: 8 banks of 1 MB).

Each bank is an independent :class:`~repro.core.controller.Cache` built
from the configured design; blocks interleave across banks by address.
The L2 records per-bank access counts for the bandwidth analysis of
Section VI-D.

Since ZScope, every per-bank counter lives in the metrics registry
(``l2.bank3.hits``, ``l2.bank3.walk.tag_reads``, ``l2.bank3.port_accesses``)
and the old attribute surfaces — ``bank_accesses``, ``writeback_hits``,
``writeback_misses`` — are thin read-only views over it.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core import (
    AccessResult,
    Cache,
    SetAssociativeArray,
    SkewAssociativeArray,
    ZCacheArray,
)
from repro.core.zcache import WalkStats
from repro.obs import MetricsRegistry, ObsContext
from repro.replacement import BucketedLRU, LFU, LRU, FIFO, NRU, RandomPolicy, SRRIP
from repro.sim.config import CMPConfig


def bank_index(address: int, num_banks: int) -> int:
    """Address-interleaved bank mapping, shared by every site that needs it.

    This is *the* interleaving: :class:`BankedL2` and the trace-capture
    path (``CapturedTrace.bank_demand_traces``, which builds OPT's
    per-bank future traces) both call it. The back end's per-event step
    (``repro.sim.cmp``) writes the same ``address % num_banks`` inline,
    and ``tests/sim/test_l2.py`` holds the port counters to this
    function.
    """
    return address % num_banks


def _build_bank_array(cfg: CMPConfig, bank: int):
    design = cfg.l2_design
    lines = cfg.bank_lines_per_way
    seed = 97 + bank  # distinct hash functions per bank
    if design.kind == "sa":
        return SetAssociativeArray(
            design.ways, lines, hash_kind=design.hash_kind, hash_seed=seed
        )
    if design.kind == "skew":
        return SkewAssociativeArray(
            design.ways, lines, hash_kind=design.hash_kind, hash_seed=seed
        )
    return ZCacheArray(
        design.ways,
        lines,
        levels=design.levels,
        hash_kind=design.hash_kind,
        hash_seed=seed,
        candidate_limit=design.candidate_limit,
    )


def _build_policy(cfg: CMPConfig, bank: int, opt_traces=None):
    name = cfg.l2_design.policy
    if name == "lru":
        return LRU()
    if name == "bucketed-lru":
        return BucketedLRU.for_cache_size(cfg.bank_blocks)
    if name == "fifo":
        return FIFO()
    if name == "lfu":
        return LFU()
    if name == "random":
        return RandomPolicy(seed=bank)
    if name == "srrip":
        return SRRIP()
    if name == "nru":
        return NRU()
    if name == "opt":
        if opt_traces is None:
            raise ValueError(
                "policy 'opt' requires per-bank future traces "
                "(use TraceDrivenRunner)"
            )
        from repro.replacement import OptPolicy

        return OptPolicy.from_trace(opt_traces[bank])
    raise ValueError(f"unknown L2 policy {name!r}")


class BankedL2:
    """The shared L2: bank selection, per-bank caches, statistics.

    Parameters
    ----------
    cfg:
        System configuration (bank geometry comes from here).
    opt_traces:
        For the OPT policy: one future demand-access address list per
        bank (from a trace-capture pass).
    policy_wrapper:
        Optional callable applied to each bank's policy (e.g.
        :class:`~repro.assoc.measurement.TrackedPolicy`).
    obs:
        Optional :class:`~repro.obs.ObsContext`. Each bank registers its
        controller and walk counters under ``<scope>.bank<b>`` and traces
        through the shared bus; without one the L2 keeps a private
        registry (identical behaviour, nothing exported).
    """

    def __init__(
        self,
        cfg: CMPConfig,
        opt_traces=None,
        policy_wrapper: Optional[Callable] = None,
        obs: Optional[ObsContext] = None,
    ) -> None:
        self.cfg = cfg
        self.metrics = obs.metrics if obs is not None else MetricsRegistry()
        self.banks: list[Cache] = []
        for b in range(cfg.l2_banks):
            policy = _build_policy(cfg, b, opt_traces)
            if policy_wrapper is not None:
                policy = policy_wrapper(policy)
            self.banks.append(
                Cache(
                    _build_bank_array(cfg, b),
                    policy,
                    name=f"L2b{b}",
                    obs=obs.scoped(f"bank{b}") if obs is not None else None,
                    engine=cfg.engine,
                )
            )
        #: Port-level counters, one per bank (demand, upgrade and
        #: writeback traffic); the name avoids colliding with each bank
        #: controller's ``accesses``. The back end's step bumps these
        #: itself, so they are live during a run.
        self.port_counters = [
            self.metrics.counter(f"bank{b}.port_accesses")
            for b in range(cfg.l2_banks)
        ]
        #: L1 writebacks the L2 absorbed / forwarded to memory.
        self.writeback_hit_counter = self.metrics.counter("writeback_hits")
        self.writeback_miss_counter = self.metrics.counter("writeback_misses")

    @property
    def bank_accesses(self) -> list[int]:
        """Per-bank port access counts (a snapshot, not a live list)."""
        return [c.value for c in self.port_counters]

    @property
    def writeback_hits(self) -> int:
        """L1 writebacks the L2 absorbed."""
        return self.writeback_hit_counter.value

    @property
    def writeback_misses(self) -> int:
        """L1 writebacks that missed the L2 and went to memory."""
        return self.writeback_miss_counter.value

    def access(self, address: int, is_write: bool) -> AccessResult:
        """One demand access (an L1 miss reaching the L2): the home
        bank's own :class:`~repro.core.AccessResult`."""
        bank = bank_index(address, self.cfg.l2_banks)
        self.port_counters[bank].value += 1
        return self.banks[bank].access(address, is_write)

    def writeback(self, address: int) -> bool:
        """An L1 dirty eviction writes its data down.

        Returns True if the L2 absorbed it (hit). Writebacks update data
        and dirty state but do not touch the replacement policy — they
        are not demand references. A miss (possible in trace mode, where
        inclusion is not enforced on the L1 stream) forwards the line to
        memory.
        """
        bank = bank_index(address, self.cfg.l2_banks)
        self.port_counters[bank].value += 1
        if self.banks[bank].absorb_writeback(address):
            self.writeback_hit_counter.value += 1
            return True
        self.writeback_miss_counter.value += 1
        return False

    def __contains__(self, address: int) -> bool:
        return address in self.banks[bank_index(address, self.cfg.l2_banks)]

    # -- aggregate statistics ---------------------------------------------------
    def total(self, attr: str) -> int:
        """Sum a CacheStats counter across banks (an end-of-run read:
        nothing polls an aggregate per access)."""
        return sum(b.stats.counters()[attr].value for b in self.banks)

    @property
    def hits(self) -> int:
        return self.total("hits")

    @property
    def misses(self) -> int:
        return self.total("misses")

    @property
    def accesses(self) -> int:
        return self.total("accesses")

    @property
    def writebacks_to_memory(self) -> int:
        return self.total("writebacks") + self.writeback_misses

    @property
    def walk_tag_reads(self) -> int:
        return self.total("walk_tag_reads")

    @property
    def relocations(self) -> int:
        return self.total("relocations")

    def walk_stats(self) -> Optional[WalkStats]:
        """Merged zcache walk statistics (None for non-z designs)."""
        merged = None
        for bank in self.banks:
            stats = getattr(bank.array, "stats", None)
            if not isinstance(stats, WalkStats):
                return None
            if merged is None:
                merged = WalkStats()
            merged.merge(stats)
        return merged
