"""Cache controller: array + replacement policy + statistics.

The controller implements the full access protocol the paper describes:

- **Hit**: single lookup, policy notified (common case, no walk).
- **Miss**: the array collects replacement candidates (the walk, for a
  zcache). If a candidate slot is empty, the block fills it (relocating
  as needed, no eviction). Otherwise the policy picks the victim among
  the candidate addresses; the controller evicts it, performs the
  relocations, and installs the incoming block.

Write-allocate, write-back semantics: writes to non-resident blocks
allocate; dirty blocks report a writeback when evicted or invalidated.
Statistics cover everything the energy model and the bandwidth analysis
(Section VI-D) need: tag/data array reads and writes, walk lengths,
relocations, and writebacks. Since the ZScope layer, the counters live
in a metrics registry (:class:`CacheStats` is a
:class:`~repro.obs.metrics.RegistryStats` facade).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator, Optional

from repro.core.base import CacheArray, CommitResult, Replacement
from repro.obs import ObsContext
from repro.obs.metrics import MetricsRegistry, RegistryStats
from repro.replacement.base import ReplacementPolicy

if TYPE_CHECKING:
    from repro.kernels.engine import TurboCore

#: valid values for the ``engine`` constructor argument
ENGINES = ("reference", "turbo")

#: an invalid node's address in :meth:`Cache._pick`; no block has it
_MASKED = -1


@dataclass(slots=True)
class AccessResult:
    """Outcome of a single cache access."""

    address: int
    hit: bool
    evicted: Optional[int] = None
    writeback: bool = False
    relocations: int = 0
    filled_empty: bool = False
    #: the block could not be installed because every replacement
    #: candidate was pinned (see :meth:`Cache.pin`)
    bypassed: bool = False


class CacheStats(RegistryStats):
    """Cumulative controller statistics, backed by the metrics registry.

    Tag/data access counters follow the paper's energy accounting
    (Section III-B): a hit reads the tag array once per way and the data
    array once; a walk reads one tag per candidate; each relocation reads
    and writes both tag and data; a fill writes tag and data once.

    Every field reads and writes like the plain integer attribute it
    used to be, but is backed by a registered
    :class:`~repro.obs.metrics.Counter` — hand the constructor a scoped
    registry and the counters appear under that scope (``l2.bank3.hits``).
    """

    _COUNTER_FIELDS = (
        "accesses",
        "reads",
        "writes",
        "hits",
        "misses",
        "evictions",
        "writebacks",
        "fills_empty",
        "invalidations",
        "relocations",
        # misses that could not allocate because all candidates were pinned
        "pin_overflows",
        "walk_tag_reads",
        "tag_reads",
        "tag_writes",
        "data_reads",
        "data_writes",
    )

    #: eviction priorities recorded by an attached tracker (see
    #: repro.assoc.measurement); empty unless measurement is enabled
    eviction_priorities: list[float]

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        super().__init__(registry)
        self.eviction_priorities = []

    @property
    def miss_rate(self) -> float:
        """Misses over accesses (0.0 before the first access)."""
        accesses = self.counters()["accesses"].value
        return self.counters()["misses"].value / accesses if accesses else 0.0

    @property
    def hit_rate(self) -> float:
        """Hits over accesses (0.0 before the first access)."""
        accesses = self.counters()["accesses"].value
        return self.counters()["hits"].value / accesses if accesses else 0.0


class Cache:
    """A cache: an array, a policy, and the glue between them.

    Parameters
    ----------
    array:
        Any :class:`~repro.core.base.CacheArray`.
    policy:
        Any :class:`~repro.replacement.base.ReplacementPolicy`. Wrap it
        in :class:`~repro.assoc.measurement.TrackedPolicy` to record
        eviction priorities.
    name:
        Label used in reports.
    obs:
        Optional :class:`~repro.obs.ObsContext`. When given, the
        statistics counters register under its metrics scope and the
        array is attached (geometry gauges, walk counters). Without
        one, behaviour is identical to the pre-ZScope controller: a
        private registry.
    engine:
        ``"reference"`` (default) runs the per-candidate Python
        protocol below; ``"turbo"`` delegates accesses to the ZTurbo
        vectorized core (:mod:`repro.kernels`) when the configuration
        is supported, silently falling back to the reference path when
        it is not. Both engines are bit-identical in every observable
        (victims, priorities, counters, final contents) — asserted by
        ``scripts/diff_engines.py``. The :attr:`engine` attribute holds
        the engine actually running.
    """

    def __init__(
        self,
        array: CacheArray,
        policy: ReplacementPolicy,
        name: str = "cache",
        obs: Optional[ObsContext] = None,
        engine: str = "reference",
    ) -> None:
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
        self.array = array
        self.policy = policy
        self.name = name
        self.obs = obs
        #: cumulative statistics, bound once: the hot-path counter refs
        #: below (and BankedL2's memo, and the turbo core's) point into it
        self.stats = CacheStats(obs.metrics if obs is not None else None)
        # The access loop increments these directly (counter.value += 1
        # costs what a dataclass attribute bump costs); the registry
        # facade is for readers.
        counters = self.stats.counters()
        self._sc = counters
        self._c_accesses = counters["accesses"]
        self._c_reads = counters["reads"]
        self._c_writes = counters["writes"]
        self._c_hits = counters["hits"]
        self._c_misses = counters["misses"]
        self._c_tag_reads = counters["tag_reads"]
        self._c_data_reads = counters["data_reads"]
        self._c_data_writes = counters["data_writes"]
        self._c_walk_tag_reads = counters["walk_tag_reads"]
        self._c_fills_empty = counters["fills_empty"]
        self._c_evictions = counters["evictions"]
        self._c_writebacks = counters["writebacks"]
        self._c_relocations = counters["relocations"]
        self._c_tag_writes = counters["tag_writes"]
        if obs is not None:
            array.attach_obs(obs)
        #: the array's address -> position map: the hot paths test
        #: residency in it directly (``lookup`` is a read of it, and no
        #: array proxy interposes on reads), as the turbo core does
        self._resident = array._pos
        self._dirty: set[int] = set()
        self._pinned: set[int] = set()
        self.requested_engine = engine
        self._turbo: Optional["TurboCore"] = None
        if engine == "turbo":
            from repro.kernels.engine import (
                try_build_turbo_explain,
                warn_turbo_fallback,
            )

            self._turbo, fallback_reason = try_build_turbo_explain(self)
            if obs is not None:
                obs.metrics.gauge("engine_turbo").set(
                    1 if self._turbo is not None else 0
                )
                obs.metrics.gauge("engine_fallback").set(
                    0 if self._turbo is not None else 1
                )
            if self._turbo is None:
                warn_turbo_fallback(fallback_reason)
        self.engine = "turbo" if self._turbo is not None else "reference"

    # -- queries -------------------------------------------------------------
    def __contains__(self, address: int) -> bool:
        return address in self.array

    def __len__(self) -> int:
        return len(self.array)

    def is_dirty(self, address: int) -> bool:
        """True if the resident block has been written since install."""
        return address in self._dirty

    # -- pinning (paper Section I: TM / speculation / monitoring systems
    # -- that buffer blocks in the cache and must not lose them) -----------
    def pin(self, address: int) -> None:
        """Exempt a resident block from eviction.

        Pinned blocks may still be *relocated* by a zcache walk (they
        stay cached, which is all pinning promises) but are never chosen
        as victims. If a later miss finds every candidate pinned, the
        incoming block bypasses the cache (``AccessResult.bypassed``) —
        the overflow event that, in a TM system, triggers the fallback
        path. High associativity makes this rare: that is the paper's
        Section I motivation.
        """
        if self._turbo is not None:
            raise RuntimeError(
                "pinning is not supported under the turbo engine; "
                "construct the cache with engine='reference'"
            )
        if self.array.lookup(address) is None:
            raise KeyError(f"cannot pin non-resident block {address:#x}")
        self._pinned.add(address)

    def unpin(self, address: int) -> None:
        """Remove a block's eviction exemption (no-op if not pinned)."""
        self._pinned.discard(address)

    def is_pinned(self, address: int) -> bool:
        """True if the block is exempt from eviction."""
        return address in self._pinned

    @property
    def pinned_count(self) -> int:
        return len(self._pinned)

    def _account_walk(self, repl: Replacement) -> None:
        """Count one walk's tag reads."""
        self._c_walk_tag_reads.value += repl.tag_reads
        self._c_tag_reads.value += repl.tag_reads

    # -- the access protocol ---------------------------------------------------
    # A hit is served here; every filling miss, from access and from
    # TwoPhaseZCache.commit_prepared, runs the one miss routine _fill.
    # Subclasses change a miss through _pick, _replace and _evict (the
    # ordering each keeps is in docs/architecture.md, "Controllers").

    def access(self, address: int, is_write: bool = False) -> AccessResult:
        """Perform one read or write access to ``address``."""
        if self._turbo is not None:
            return self._turbo.access(address, is_write)
        if address < 0:
            raise ValueError(f"address must be non-negative, got {address}")
        if address not in self._resident:
            return self._fill(address, is_write)
        self._c_accesses.value += 1
        self._c_hits.value += 1
        # Lookup: one tag read per way, one data access (the hit way).
        self._c_tag_reads.value += self.array.num_ways
        if is_write:
            self._c_writes.value += 1
            self._c_data_writes.value += 1
            self._dirty.add(address)
        else:
            self._c_reads.value += 1
            self._c_data_reads.value += 1
        self.policy.on_access(address, is_write)
        return AccessResult(address, True)

    def probe(self, address: int, is_write: bool = False) -> bool:
        """Perform a lookup-only access: a hit behaves exactly like
        :meth:`access`, a miss is counted but triggers **no** fill.

        This is the read path of a cache-aside service (ZServe): a
        ``get`` must not allocate — the client reacts to the miss (e.g.
        by computing the value and ``put``-ing it back). Returns True
        on a hit.
        """
        if self._turbo is not None:
            raise RuntimeError(
                "probe requires the reference engine; construct the "
                "cache with engine='reference'"
            )
        if address < 0:
            raise ValueError(f"address must be non-negative, got {address}")
        if self.array.lookup(address) is not None:
            self.access(address, is_write)
            return True
        self._count_miss(is_write)
        # A probe has no walk to fold the failed lookup's tag reads into.
        self._c_tag_reads.value += self.array.num_ways
        return False

    def _count_miss(self, is_write: bool) -> None:
        """Demand prologue of a miss: count the reference.

        The failed lookup read the tags; the walk's level-0 reads are
        those same reads, so tag accounting comes from the walk.
        """
        self._c_accesses.value += 1
        if is_write:
            self._c_writes.value += 1
        else:
            self._c_reads.value += 1
        self._c_misses.value += 1

    def _fill(
        self, address: int, is_write: bool, repl: Optional[Replacement] = None
    ) -> AccessResult:
        """The miss routine: count the miss, walk (unless ``repl`` is a
        walk prepared earlier), account the walk's tag reads, pick, and
        land the block on a free slot or hand the victim to
        :meth:`_replace`."""
        self._count_miss(is_write)
        if repl is None:
            repl = self.array.build_replacement(address)
        self._account_walk(repl)
        node = self._pick(repl)
        if node < 0:
            return self._bypass(address)
        if repl.addresses[node] is None:
            # Nothing to evict: the base routine lands the block, and an
            # override of _replace (the two-phase walk) never sees it.
            self._c_fills_empty.value += 1
            result = Cache._replace(self, repl, node)
        else:
            result = self._replace(repl, node)
        if is_write and not result.bypassed:
            self._dirty.add(address)
        return result

    def _pick(self, repl: Replacement, skip: Optional[int] = None) -> int:
        """Where a fill lands: one pass over the walk record.

        Levels never decrease along the record, so the first usable node
        holding an address is its cheapest (shallowest) one. The first
        usable free slot wins outright: no eviction, fewest relocations.
        Otherwise the policy picks among the evictable blocks — held by
        a usable node, not pinned, not ``skip`` — in candidate order,
        and the first usable node holding its choice is the victim.

        ``skip`` is the phase-2 question of
        :class:`~repro.core.twophase.TwoPhaseZCache`: should the
        phase-1 victim ``skip`` move into this walk instead? The policy
        then picks among ``skip`` and the evictable blocks, and ``skip``
        staying the choice (or nothing else being evictable) means no.

        Returns the node the fill lands on — a free slot when
        ``repl.addresses[node] is None``, else the victim's — or -1 when
        every candidate is pinned (the caller bypasses) or ``skip``
        stays the victim.
        """
        if repl.exhaustive and not repl.addresses:
            return self._global_victim(repl)
        addresses = repl.addresses
        invalid = repl.invalid
        if invalid:
            addresses = list(addresses)
            for i in invalid:
                addresses[i] = _MASKED
        if None in addresses:
            return addresses.index(None)
        # Keyed in candidate order; one block in two nodes is seen once.
        evictable: dict[Any, None] = dict.fromkeys(addresses)
        evictable.pop(_MASKED, None)
        if skip is not None:
            evictable.pop(skip, None)
        pinned = self._pinned
        if pinned:
            choices = [a for a in evictable if a not in pinned]
        else:
            choices = list(evictable)
        if not choices:
            if pinned or skip is not None:
                return -1
            raise RuntimeError(
                f"no usable replacement candidates for {repl.incoming:#x}"
            )
        if skip is None:
            victim = self.policy.select_victim(choices)
        else:
            victim = self.policy.select_victim([skip, *choices])
            if victim == skip:
                return -1
        return addresses.index(victim)

    def _global_victim(self, repl: Replacement) -> int:
        """The victim when every resident block is a candidate: the
        policy's global choice, or its pick among the unpinned blocks,
        appended to the empty exhaustive record as its one node (-1
        when every block is pinned)."""
        victim = self.policy.global_victim()
        if victim is None or victim in self._pinned:
            unpinned = [a for a in self.array.resident() if a not in self._pinned]
            if not unpinned:
                return -1
            victim = self.policy.select_victim(unpinned)
        pos = self.array.lookup(victim)
        if pos is None:
            raise RuntimeError(f"policy chose non-resident victim {victim:#x}")
        repl.ways.append(pos.way)
        repl.indices.append(pos.index)
        repl.addresses.append(victim)
        return 0

    def _replace(self, repl: Replacement, node: int) -> AccessResult:
        """Evict the block at ``node`` (none on a free slot) and land the
        incoming block through its path.

        Order is part of the contract: evict-accounting, then the
        commit, then ``on_insert``.
        """
        incoming = repl.incoming
        victim = repl.addresses[node]
        writeback = victim is not None and self._evict(victim)
        commit = self.array.commit_replacement(repl, node)
        relocations = self._account_commit(commit)
        self.policy.on_insert(incoming)
        return AccessResult(
            incoming, False, victim, writeback, relocations, victim is None
        )

    def _evict(self, victim: int) -> bool:
        """The eviction choke point: every replacement victim, on every
        path, leaves through here. Returns True on a writeback.

        ``policy.on_evict`` is where an attached
        :class:`~repro.assoc.measurement.TrackedPolicy` records the
        victim's normalised eviction priority.
        """
        self.policy.on_evict(victim)
        self._c_evictions.value += 1
        writeback = victim in self._dirty
        if writeback:
            self._dirty.remove(victim)
            self._c_writebacks.value += 1
        return writeback

    def _account_commit(self, commit: CommitResult) -> int:
        """Count one committed relocation path; returns its length.

        Each relocation reads and rewrites one block's tag and data;
        the final install writes the landing block's tag and data.
        """
        relocations = commit.relocations
        self._c_relocations.value += relocations
        self._c_tag_writes.value += relocations + 1
        self._c_data_reads.value += relocations
        self._c_data_writes.value += relocations + 1
        return relocations

    def _bypass(self, address: int) -> AccessResult:
        """Every candidate is pinned: the block bypasses the cache (the
        TM-style overflow event)."""
        self._sc["pin_overflows"].value += 1
        return AccessResult(address=address, hit=False, bypassed=True)

    # -- writeback absorption ----------------------------------------------------
    def absorb_writeback(self, address: int) -> bool:
        """Absorb a writeback from the level above (an L1 dirty eviction).

        If the block is resident, its data is rewritten and it becomes
        dirty; the replacement policy is *not* notified — a writeback is
        not a demand reference. Returns True when absorbed, False when
        the block is not resident (the caller forwards it to memory).

        This is the sanctioned API for what used to be done by reaching
        into ``cache._dirty`` and the stats dict from the outside; the
        data-write counter is the cached hot-path reference.
        """
        if address not in self._resident:
            return False
        self._c_data_writes.value += 1
        self._dirty.add(address)
        return True

    # -- external block removal ------------------------------------------------
    def invalidate(self, address: int) -> bool:
        """Remove a block (coherence or inclusion victim).

        Returns True if the block was dirty (a writeback is required).
        Missing blocks are tolerated — an invalidation can race an
        eviction — and return False.
        """
        if self._turbo is not None:
            return self._turbo.invalidate(address)
        if self.array.lookup(address) is None:
            return False
        self.array.evict_address(address)
        self.policy.on_evict(address)
        self._pinned.discard(address)
        self._sc["invalidations"].value += 1
        if address in self._dirty:
            self._dirty.remove(address)
            self._c_writebacks.value += 1
            return True
        return False

    def resident(self) -> Iterator[int]:
        """Iterate over resident block addresses."""
        return self.array.resident()
