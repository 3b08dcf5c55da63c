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

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core import (
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

    This is *the* interleaving function: :meth:`BankedL2.bank_for` and
    the trace-capture path (``CapturedTrace.bank_demand_traces``, which
    builds OPT's per-bank future traces) both call it, so a change to
    the interleaving can never silently desynchronise them.
    """
    return address % num_banks


@dataclass
class L2AccessOutcome:
    """Result of one L2 demand access."""

    hit: bool
    evicted: Optional[int]
    writeback: bool  # dirty L2 victim went to memory
    bank: int


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
        # Port-level counters (demand + writeback traffic per bank); the
        # name avoids colliding with each bank controller's `accesses`.
        self._bank_access = [
            self.metrics.counter(f"bank{b}.port_accesses")
            for b in range(cfg.l2_banks)
        ]
        self._c_writeback_hits = self.metrics.counter("writeback_hits")
        self._c_writeback_misses = self.metrics.counter("writeback_misses")
        # attr -> the banks' Counter objects, lazily built: the timing
        # model polls aggregates like `walk_tag_reads` per access, so
        # `total()` must not re-resolve counters every call (a bank's
        # stats object is bound once, so the refs stay live).
        self._total_cache: dict[str, list] = {}

    @property
    def bank_accesses(self) -> list[int]:
        """Per-bank port access counts (a snapshot, not a live list)."""
        return [c.value for c in self._bank_access]

    @property
    def writeback_hits(self) -> int:
        """L1 writebacks the L2 absorbed."""
        return self._c_writeback_hits.value

    @property
    def writeback_misses(self) -> int:
        """L1 writebacks that missed the L2 and went to memory."""
        return self._c_writeback_misses.value

    def record_bank_access(self, bank: int) -> None:
        """Count one port access to ``bank`` (demand or writeback)."""
        self._bank_access[bank].value += 1

    def bank_for(self, address: int) -> int:
        """Address-interleaved bank selection (see :func:`bank_index`)."""
        return bank_index(address, self.cfg.l2_banks)

    def access(self, address: int, is_write: bool) -> L2AccessOutcome:
        """One demand access (an L1 miss reaching the L2)."""
        bank = self.bank_for(address)
        self._bank_access[bank].value += 1
        result = self.banks[bank].access(address, is_write)
        return L2AccessOutcome(
            hit=result.hit,
            evicted=result.evicted,
            writeback=result.writeback,
            bank=bank,
        )

    def writeback(self, address: int) -> bool:
        """An L1 dirty eviction writes its data down.

        Returns True if the L2 absorbed it (hit). Writebacks update data
        and dirty state but do not touch the replacement policy — they
        are not demand references. A miss (possible in trace mode, where
        inclusion is not enforced on the L1 stream) forwards the line to
        memory.
        """
        bank = self.bank_for(address)
        self._bank_access[bank].value += 1
        if self.banks[bank].absorb_writeback(address):
            self._c_writeback_hits.value += 1
            return True
        self._c_writeback_misses.value += 1
        return False

    def invalidate(self, address: int) -> bool:
        """Back-invalidate (unused externally today; symmetry helper)."""
        return self.banks[self.bank_for(address)].invalidate(address)

    def __contains__(self, address: int) -> bool:
        return address in self.banks[self.bank_for(address)]

    # -- aggregate statistics ---------------------------------------------------
    def total(self, attr: str) -> int:
        """Sum a CacheStats counter across banks."""
        counters = self._total_cache.get(attr)
        if counters is None:
            counters = [b.stats.counters()[attr] for b in self.banks]
            self._total_cache[attr] = counters
        return sum(c.value for c in counters)

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
