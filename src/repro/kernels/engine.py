"""The turbo engine: the reference access protocol over dense arrays.

:func:`try_build_turbo` inspects a freshly built
:class:`~repro.core.controller.Cache` and, when the (array, policy,
observability) combination is one the kernels cover, returns a
:class:`TurboCore` that the controller delegates ``access`` and
``invalidate`` to. Anything else returns ``None`` and the controller
runs the reference path — requesting ``engine="turbo"`` is always safe.

The core executes the *same* protocol as the reference controller —
identical counter increments, identical victim choices, identical
eviction-priority values, identical final array contents — it just
stores the hot state densely:

- a ``tags`` int64 mirror of the array (−1 = empty), indexed by global
  slot id ``way * lines_per_way + index``, gathered by the walk kernels;
- a policy kernel (:mod:`repro.kernels.policy`) holding per-slot scores,
  so victim selection is an argmin/argmax and the eviction-priority rank
  one vectorized comparison instead of a sorted-list update per
  access;
- pre-synced RNG streams (:mod:`repro.kernels.rng`) reproducing the
  reference ``random.Random`` draws bit for bit.

The array's authoritative structures (``_lines``, ``_pos``, and the
random-candidates array's :class:`~repro.util.freeslots.FreeSlots`,
through its ``lowest`` / ``add`` / ``discard``) are written through on
every mutation, so queries, invariant checks and post-run inspection
see exactly the state the reference engine would have left. The
array's ``random.Random`` is read once, at construction: the reference
fill's slots are its ``randrange`` sequence, which the synced stream
reproduces, so an array still pooling slots its RNG has passed is
declined. What is *not* maintained while the
core runs is the replacement policy's own per-address dicts and a
:class:`~repro.assoc.measurement.TrackedPolicy`'s sorted mirror — their
information lives in the policy kernel instead (the tracked
``priorities`` list, which experiments consume, *is* kept exact). A
cache must therefore stay on one engine for its whole life; the
constructor-time switch enforces that.

Supported configurations (everything else falls back):

========================  =====================================================
array                     ``RandomCandidatesArray``, ``SetAssociativeArray``,
                          ``ZCacheArray``/``SkewAssociativeArray`` with BFS
                          strategy, no repeat filter, no candidate limit
policy                    ``LRU``, ``FIFO``, ``RandomPolicy`` — bare or wrapped
                          in exactly ``TrackedPolicy``
controller                plain ``Cache`` (not ``TwoPhaseZCache``), nothing
                          pinned, array, slot pool and policy empty
========================  =====================================================
"""

from __future__ import annotations

import warnings
from typing import TYPE_CHECKING, Callable, Optional, Union

import numpy as np

from repro.assoc.measurement import TrackedPolicy
from repro.core.base import Position
from repro.core.controller import AccessResult
from repro.core.randomcand import RandomCandidatesArray
from repro.core.setassoc import SetAssociativeArray
from repro.core.skew import SkewAssociativeArray
from repro.core.zcache import ZCacheArray
from repro.kernels.policy import RandomKernel, StampKernel
from repro.kernels.rng import MTStream, RandrangePool
from repro.kernels.walk import SetWalk, ZWalk
from repro.replacement.lru import FIFO, LRU
from repro.replacement.random_policy import RandomPolicy

if TYPE_CHECKING:
    from repro.core.controller import Cache

PolicyKernel = Union[StampKernel, RandomKernel]


def _build_policy_kernel(cache: "Cache") -> Optional[tuple[PolicyKernel, Optional[TrackedPolicy]]]:
    """Policy kernel + optional tracker for the cache's policy, or None."""
    policy = cache.policy
    tracked: Optional[TrackedPolicy] = None
    if type(policy) is TrackedPolicy:
        tracked = policy
        if tracked._mirror:
            return None
        policy = policy.inner
    num_blocks = cache.array.num_blocks
    if type(policy) is LRU or type(policy) is FIFO:
        if policy._stamp:
            return None
        kernel: PolicyKernel = StampKernel(
            num_blocks, counter=policy._counter, bump_on_hit=type(policy) is LRU
        )
        return kernel, tracked
    if type(policy) is RandomPolicy:
        if policy._priority:
            return None
        return RandomKernel(num_blocks, policy._rng), tracked
    return None


class TurboFallbackWarning(RuntimeWarning):
    """A requested turbo engine fell back to the reference path."""


#: fallback reasons already warned about (one warning per reason)
_warned_reasons: set[str] = set()


def warn_turbo_fallback(reason: str) -> None:
    """One-shot :class:`TurboFallbackWarning` per distinct reason.

    ``engine="turbo"`` is a performance request, not a behaviour
    change — both engines are bit-identical — so an unsupported
    configuration degrades silently in results but loudly in intent:
    the first cache to fall back for each reason emits a warning
    naming the unsupported piece, and repeats stay quiet (a sweep
    building thousands of identical caches must not warn thousands of
    times).
    """
    if reason in _warned_reasons:
        return
    _warned_reasons.add(reason)
    warnings.warn(
        f"turbo engine unavailable: {reason}; running the reference "
        "engine (bit-identical, slower)",
        TurboFallbackWarning,
        stacklevel=3,
    )


def try_build_turbo_explain(
    cache: "Cache",
) -> tuple[Optional["TurboCore"], str]:
    """A :class:`TurboCore` for ``cache``, or ``(None, reason)``.

    Exact-type checks throughout: a subclass may override any of the
    behaviours the kernels replicate, and silently diverging from it
    would defeat the bit-identity contract. The reason string names
    the unsupported piece (cache type, array type, policy, state) and
    is empty when a core was built.
    """
    from repro.core.controller import Cache

    if type(cache) is not Cache:
        return None, f"unsupported cache type {type(cache).__name__}"
    if cache._pinned:
        return None, "pinned blocks present"
    array = cache.array
    if array._pos:
        return None, "array not empty"
    built = _build_policy_kernel(cache)
    if built is None:
        policy = cache.policy
        inner = policy.inner if type(policy) is TrackedPolicy else policy
        return None, f"unsupported policy {type(inner).__name__}"
    kernel, tracked = built
    if type(array) is RandomCandidatesArray:
        if array._taken < len(array._pool):  # its RNG is past these slots
            return None, "random-candidates array holds pooled draws"
        return TurboCore(cache, kernel, tracked, pool=RandrangePool(
            MTStream(array._rng), array.lines_per_way
        )), ""
    if type(array) is SetAssociativeArray:
        walk: Union[SetWalk, ZWalk] = SetWalk(
            array.num_ways, array.lines_per_way, array.index_hash
        )
        return TurboCore(cache, kernel, tracked, walk=walk), ""
    if type(array) in (ZCacheArray, SkewAssociativeArray):
        if array.strategy != "bfs":
            return None, f"unsupported walk strategy {array.strategy!r}"
        if array.repeat_filter is not None:
            return None, "repeat filter installed"
        if array.candidate_limit is not None:
            return None, "candidate limit installed"
        walk = ZWalk(array.num_ways, array.lines_per_way, array.levels, array.hashes)
        return TurboCore(cache, kernel, tracked, walk=walk), ""
    return None, f"unsupported array type {type(array).__name__}"


def try_build_turbo(cache: "Cache") -> Optional["TurboCore"]:
    """A :class:`TurboCore` for ``cache``, or None if unsupported."""
    return try_build_turbo_explain(cache)[0]


class TurboCore:
    """Dense-state executor for one cache's access/invalidate protocol."""

    def __init__(
        self,
        cache: "Cache",
        policy_kernel: PolicyKernel,
        tracked: Optional[TrackedPolicy],
        walk: Optional[Union[SetWalk, ZWalk]] = None,
        pool: Optional[RandrangePool] = None,
    ) -> None:
        self.cache = cache
        self.array = cache.array
        self.pk = policy_kernel
        self.tracked = tracked
        self.walk = walk
        self.pool = pool
        self.tags = np.full(self.array.num_blocks, -1, dtype=np.int64)
        self._lines = self.array._lines
        self._pos = self.array._pos
        self._lpw = self.array.lines_per_way
        self._dirty = cache._dirty
        self._num_cand = (
            self.array.num_candidates
            if isinstance(self.array, RandomCandidatesArray)
            else 0
        )
        zc = self.array if isinstance(self.array, ZCacheArray) else None
        self._zc = zc
        self._batch_hook: Optional[Callable[[int], None]] = None
        self._batch_every = 0
        self._batch_count = 0
        # The controller binds its stats once, so these refs stay live.
        self._sc = cache._sc
        self._c_accesses = cache._c_accesses
        self._c_reads = cache._c_reads
        self._c_writes = cache._c_writes
        self._c_hits = cache._c_hits
        self._c_misses = cache._c_misses
        self._c_tag_reads = cache._c_tag_reads
        self._c_data_reads = cache._c_data_reads
        self._c_data_writes = cache._c_data_writes

    def set_batch_hook(
        self, hook: Optional[Callable[[int], None]], every: int
    ) -> None:
        """Install (or remove, with ``None``) the batch-boundary hook.

        ZTrace instrumentation point: the hook fires with the batch
        index after every ``every``-th access, letting
        :meth:`~repro.obs.SpanTracker.turbo_batches` roll one span per
        batch without touching the hot path when no hook is set (one
        ``is None`` test per access). Never installed by default, so
        engine bit-identity is unaffected.
        """
        if hook is not None and every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self._batch_hook = hook
        self._batch_every = every if hook is not None else 0
        self._batch_count = 0

    # -- slot/array mirroring ------------------------------------------------
    def _install(self, slot: int, address: int) -> None:
        self.tags[slot] = address
        way, index = divmod(slot, self._lpw)
        self._lines[way][index] = address
        self._pos[address] = Position(way, index)

    def _clear(self, slot: int, address: int) -> None:
        self.tags[slot] = -1
        way, index = divmod(slot, self._lpw)
        self._lines[way][index] = None
        del self._pos[address]

    # -- tracked-priority bookkeeping ----------------------------------------
    def _record_eviction(self, victim_slot: int, victim_addr: int) -> None:
        """What ``TrackedPolicy.on_evict`` records, from dense state.

        Must run *before* the victim leaves the array: the rank is taken
        among all currently resident blocks, and the normalisation uses
        the resident count including the victim.
        """
        tracked = self.tracked
        if tracked is None:
            return
        resident = len(self._pos)
        rank = self.pk.rank(victim_slot, victim_addr, self.tags)
        tracked.priorities.append(
            rank / (resident - 1) if resident > 1 else 1.0
        )

    # -- the access protocol -------------------------------------------------
    def access(self, address: int, is_write: bool) -> AccessResult:
        """One read/write access — :meth:`Cache.access`, vectorized."""
        if address < 0:
            raise ValueError(f"address must be non-negative, got {address}")
        if self._batch_hook is not None:
            self._batch_count += 1
            if self._batch_count >= self._batch_every:
                self._batch_count = 0
                self._batch_hook(
                    (self._c_accesses.value + 1) // self._batch_every
                )
        self._c_accesses.value += 1
        if is_write:
            self._c_writes.value += 1
        else:
            self._c_reads.value += 1

        pos = self._pos.get(address)
        if pos is not None:
            self._c_hits.value += 1
            self._c_tag_reads.value += self.array.num_ways
            if is_write:
                self._c_data_writes.value += 1
                self._dirty.add(address)
            else:
                self._c_data_reads.value += 1
            self.pk.on_hit(pos.way * self._lpw + pos.index)
            return AccessResult(address=address, hit=True)

        self._c_misses.value += 1
        result = self._fill(address)
        if is_write:
            self._dirty.add(address)
        return result

    def _fill(self, address: int) -> AccessResult:
        if self.pool is not None:
            return self._fill_random_candidates(address)
        assert self.walk is not None
        wr = self.walk.collect(address, self.tags)
        sc = self._sc
        sc["walk_tag_reads"].value += wr.tag_reads
        self._c_tag_reads.value += wr.tag_reads
        zc = self._zc
        if zc is not None:
            zc._c_walks.value += 1
            zc._c_tag_reads.value += wr.tag_reads
            zc._c_candidates.value += len(wr.slots)
            zc._c_repeats.value += wr.repeats

        empty = wr.valid & (wr.addrs < 0)
        evicted: Optional[int] = None
        writeback = False
        if empty.any():
            # BFS order is level-nondecreasing, so the first valid empty
            # candidate is the shallowest — Replacement.first_empty().
            ci = int(np.argmax(empty))
            sc["fills_empty"].value += 1
        else:
            usable = wr.valid & (wr.addrs >= 0)
            cand = np.nonzero(usable)[0]
            if len(cand) == 0:
                raise RuntimeError(
                    f"no usable replacement candidates for {address:#x}"
                )
            # Repeated positions gather equal scores; first-of-equals
            # matches the reference first-occurrence dedup + first-wins
            # victim scan.
            ci = int(cand[self.pk.pick_victim(wr.slots[cand])])
            victim_slot = int(wr.slots[ci])
            evicted = int(wr.addrs[ci])
            self._record_eviction(victim_slot, evicted)
            self.pk.on_clear(victim_slot)
            sc["evictions"].value += 1
            if evicted in self._dirty:
                self._dirty.remove(evicted)
                sc["writebacks"].value += 1
                writeback = True
            self._clear(victim_slot, evicted)

        # Relocation chain: each parent's block moves down into its
        # child's (now free) slot; the root receives the incoming block.
        relocations = 0
        node = ci
        parent = int(wr.parents[node])
        while parent >= 0:
            moving_addr = int(wr.addrs[parent])
            src = int(wr.slots[parent])
            dst = int(wr.slots[node])
            self._clear(src, moving_addr)
            self._install(dst, moving_addr)
            self.pk.move(src, dst)
            relocations += 1
            node = parent
            parent = int(wr.parents[node])
        root_slot = int(wr.slots[node])
        self._install(root_slot, address)
        self.pk.on_insert(root_slot)

        sc["relocations"].value += relocations
        sc["tag_writes"].value += relocations + 1
        self._c_data_reads.value += relocations
        self._c_data_writes.value += relocations + 1
        if zc is not None:
            zc._c_relocations.value += relocations
            zc.stats.record_commit_level(int(wr.levels[ci]))
        return AccessResult(
            address=address,
            hit=False,
            evicted=evicted,
            writeback=writeback,
            relocations=relocations,
            filled_empty=evicted is None,
        )

    def _fill_random_candidates(self, address: int) -> AccessResult:
        array = self.array
        assert isinstance(array, RandomCandidatesArray)
        assert self.pool is not None
        sc = self._sc
        free = array._free
        if free:
            slot = free.lowest()
            sc["walk_tag_reads"].value += 1
            self._c_tag_reads.value += 1
            sc["fills_empty"].value += 1
            free.discard(slot)
            evicted: Optional[int] = None
            writeback = False
        else:
            draws = self.pool.take(self._num_cand)
            n = len(draws)
            sc["walk_tag_reads"].value += n
            self._c_tag_reads.value += n
            # Duplicate draws share a slot and therefore a score, so the
            # kernel's first-of-equals pick lands on the first
            # occurrence — the one the reference dedup keeps.
            slot = int(draws[self.pk.pick_victim(draws)])
            evicted = int(self.tags[slot])
            self._record_eviction(slot, evicted)
            self.pk.on_clear(slot)
            sc["evictions"].value += 1
            writeback = False
            if evicted in self._dirty:
                self._dirty.remove(evicted)
                sc["writebacks"].value += 1
                writeback = True
            self._clear(slot, evicted)
            # Reference eviction adds the slot to the free list and the
            # commit takes it right back out; the net is no change.
        self._install(slot, address)
        self.pk.on_insert(slot)
        sc["tag_writes"].value += 1
        self._c_data_writes.value += 1
        return AccessResult(
            address=address,
            hit=False,
            evicted=evicted,
            writeback=writeback,
            relocations=0,
            filled_empty=evicted is None,
        )

    # -- invalidation --------------------------------------------------------
    def invalidate(self, address: int) -> bool:
        """Remove a block — :meth:`Cache.invalidate` under dense state.

        Returns True when the removed block was dirty.
        """
        pos = self._pos.get(address)
        if pos is None:
            return False
        slot = pos.way * self._lpw + pos.index
        # Reference order: the array drops the block, then the policy's
        # on_evict records the tracked priority. The rank is identical
        # either way (the victim's own entry is never counted), but the
        # resident count must still include the victim — so record first.
        self._record_eviction(slot, address)
        self._clear(slot, address)
        if isinstance(self.array, RandomCandidatesArray):
            self.array._free.add(pos.index)
        self.pk.on_clear(slot)
        self.cache._pinned.discard(address)
        self._sc["invalidations"].value += 1
        if address in self._dirty:
            self._dirty.remove(address)
            self._sc["writebacks"].value += 1
            return True
        return False
