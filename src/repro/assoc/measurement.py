"""Eviction-priority instrumentation (paper Section IV-A).

:class:`TrackedPolicy` wraps any replacement policy and mirrors the
scores of all resident blocks into one sorted list. When a block is
evicted, its *rank* r among the B resident blocks (by eviction
preference) yields the eviction priority e = r / (B - 1); the stream of
e values is the cache's associativity distribution.

The wrapper is transparent: the cache controller talks to it exactly as
to the underlying policy, so any array/policy pairing can be measured
without modification.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Any, Iterable, Sequence, Tuple

from repro.assoc.distribution import AssociativityDistribution
from repro.replacement.base import ReplacementPolicy


class TrackedPolicy(ReplacementPolicy):
    """Decorator recording the eviction priority of every evicted block."""

    def __init__(self, inner: ReplacementPolicy) -> None:
        self.inner = inner
        #: every resident ``(score, address)``, sorted; rank = bisect_left
        self._scores: list[Tuple[Any, int]] = []
        #: address -> its (score, address) entry in ``_scores``; the
        #: tuples are unique even when scores tie
        self._mirror: dict[int, Tuple[Any, int]] = {}
        #: eviction priorities, one per eviction, in eviction order
        self.priorities: list[float] = []

    # -- mirror maintenance ----------------------------------------------------
    def _sync(self, address: int) -> None:
        """Re-read a tracked block's score after the inner policy changed it."""
        scores = self._scores
        new = (self.inner.score(address), address)
        del scores[bisect_left(scores, self._mirror[address])]
        self._mirror[address] = new
        insort(scores, new)

    # -- forwarded policy interface ---------------------------------------------
    def on_insert(self, address: int) -> None:
        self.inner.on_insert(address)
        if address in self._mirror:
            raise ValueError(f"block {address:#x} inserted twice")
        entry = (self.inner.score(address), address)
        self._mirror[address] = entry
        insort(self._scores, entry)

    def on_access(self, address: int, is_write: bool = False) -> None:
        self.inner.on_access(address, is_write)
        self._sync(address)

    def on_evict(self, address: int) -> None:
        entry = self._mirror.pop(address, None)
        if entry is None:
            raise KeyError(f"evicting untracked block {address:#x}")
        scores = self._scores
        resident = len(scores)
        rank = bisect_left(scores, entry)
        del scores[rank]
        self.priorities.append(rank / (resident - 1) if resident > 1 else 1.0)
        self.inner.on_evict(address)

    def score(self, address: int) -> Any:
        return self.inner.score(address)

    def select_victim(self, candidates: Sequence[int]) -> int:
        victim = self.inner.select_victim(candidates)
        # Policies like SRRIP age blocks during selection; pick up the
        # score changes so the mirror stays exact.
        for address in self.inner.drain_score_updates():
            if address in self._mirror:
                self._sync(address)
        return victim

    def global_victim(self):
        # The globally most-evictable block, O(1) under any policy (for
        # BucketedLRU, whose select_victim deviates from score order,
        # the ground-truth-order victim).
        if not self._scores:
            return self.inner.global_victim()
        return self._scores[-1][1]

    # -- results -----------------------------------------------------------------
    def distribution(self) -> AssociativityDistribution:
        """The associativity distribution recorded so far."""
        return AssociativityDistribution(self.priorities)

    def reset(self) -> None:
        """Drop recorded priorities (e.g. after cache warm-up)."""
        self.priorities.clear()


def measure_associativity(
    cache_factory,
    policy_factory,
    trace: Iterable[Tuple[int, bool]],
    warmup: int = 0,
):
    """Run ``trace`` through a cache and measure its associativity.

    Parameters
    ----------
    cache_factory:
        Callable returning a fresh :class:`~repro.core.base.CacheArray`.
    policy_factory:
        Callable returning a fresh replacement policy.
    trace:
        Iterable of ``(address, is_write)`` pairs.
    warmup:
        Number of leading accesses whose evictions are discarded.

    Returns
    -------
    (distribution, cache):
        The measured :class:`AssociativityDistribution` and the finished
        :class:`~repro.core.controller.Cache` (for stats inspection).
    """
    from repro.core.controller import Cache

    tracked = TrackedPolicy(policy_factory())
    cache = Cache(cache_factory(), tracked, name="measured")
    for i, (address, is_write) in enumerate(trace):
        if i == warmup:
            tracked.reset()
        cache.access(address, is_write)
    return tracked.distribution(), cache
