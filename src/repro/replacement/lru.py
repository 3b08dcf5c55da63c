"""Full-timestamp LRU and FIFO.

Paper Section III-E ("Full LRU"): a global counter is incremented on each
access and copied into the accessed block's timestamp field; the
replacement candidate with the lowest timestamp is evicted. In simulation
we use unbounded Python integers, so wrap-around never occurs (the
hardware-faithful n-bit variant is :class:`~repro.replacement.
bucketed_lru.BucketedLRU` with ``bump_every=1``).
"""

from __future__ import annotations

from typing import Sequence

from repro.replacement.base import ReplacementPolicy


class LRU(ReplacementPolicy):
    """Least-recently-used via per-block global timestamps.

    The timestamp dict is kept in recency order (oldest first) so the
    global LRU block is available in O(1) for fully-associative arrays.
    """

    def __init__(self) -> None:
        self._counter = 0
        self._stamp: dict[int, int] = {}

    def global_victim(self) -> int | None:
        return next(iter(self._stamp), None)

    def on_insert(self, address: int) -> None:
        if address in self._stamp:
            raise ValueError(f"block {address:#x} inserted twice")
        self._counter += 1
        self._stamp[address] = self._counter

    def on_access(self, address: int, is_write: bool = False) -> None:
        stamp = self._stamp
        if address not in stamp:
            raise KeyError(f"access to non-resident block {address:#x}")
        self._counter += 1
        # Re-inserting moves the key to the end: dict order == recency.
        del stamp[address]
        stamp[address] = self._counter

    def on_evict(self, address: int) -> None:
        try:
            del self._stamp[address]
        except KeyError:
            raise KeyError(f"evicting non-resident block {address:#x}") from None

    def score(self, address: int) -> int:
        # Older (smaller) timestamps should be evicted first, so the
        # score is the negated timestamp.
        return -self._stamp[address]

    def select_victim(self, candidates: Sequence[int]) -> int:
        """The candidate with the smallest timestamp.

        What the base-class :meth:`~ReplacementPolicy.score` scan returns
        for a negated-timestamp score — ``min`` keeps the first of equal
        stamps, as the scan's strict ``>`` does — without a Python-level
        call per candidate.
        """
        if not candidates:
            raise ValueError("select_victim called with no candidates")
        return min(candidates, key=self._stamp.__getitem__)


class FIFO(LRU):
    """First-in first-out: LRU whose timestamp is set at insertion only,
    never refreshed by a hit.

    Insertion order of the dict is the eviction order, so the global
    victim is O(1).
    """

    def on_access(self, address: int, is_write: bool = False) -> None:
        if address not in self._stamp:
            raise KeyError(f"access to non-resident block {address:#x}")
