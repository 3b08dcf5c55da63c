"""Dense, slot-indexed replacement-policy kernels.

The reference policies keep per-address dicts (and, under
:class:`~repro.assoc.measurement.TrackedPolicy`, a sorted list of
``(score, address)`` entries with an O(n) insert per access). The turbo engine stores the
same information as dense arrays indexed by *global slot id*
(``way * lines_per_way + index``): victim selection over a miss's
candidates is a gather plus an argmin/argmax, and the eviction-priority
rank is one vectorized comparison over the whole array.

Determinism contract (asserted by the differential suite):

- victim choice equals ``policy.select_victim`` over the in-order
  deduplicated candidate list — numpy's first-of-equals argmin/argmax
  matches the reference scan's first-wins strictly-greater update;
- :meth:`rank` equals the rank ``TrackedPolicy.on_evict`` bisects for
  the victim's ``(score, address)`` entry: the count of resident entries
  comparing strictly less, with the address as tie-break;
- :class:`RandomKernel` consumes its ``random.Random`` draw-for-draw
  through an :class:`~repro.kernels.rng.MTStream` (one ``random()`` per
  insert, in insert order).
"""

from __future__ import annotations

import random

import numpy as np

from repro.kernels.rng import MTStream


class StampKernel:
    """LRU / FIFO: a global counter stamped into the touched slot.

    ``bump_on_hit`` distinguishes LRU (every touch re-stamps) from FIFO
    (insertion only). Scores are negated stamps, so the victim is the
    minimum stamp; stamps are unique, so ties never arise. Slot 0 stamps
    start at 1 and empty slots hold 0, keeping rank comparisons free of
    an explicit residency mask.
    """

    def __init__(self, num_blocks: int, counter: int, bump_on_hit: bool) -> None:
        self.stamp = np.zeros(num_blocks, dtype=np.int64)
        self.counter = counter
        self._bump_on_hit = bump_on_hit

    def on_hit(self, slot: int) -> None:
        """LRU re-stamps on every touch; FIFO ignores hits."""
        if self._bump_on_hit:
            self.counter += 1
            self.stamp[slot] = self.counter

    def on_insert(self, slot: int) -> None:
        """Stamp a newly installed block's slot."""
        self.counter += 1
        self.stamp[slot] = self.counter

    def on_clear(self, slot: int) -> None:
        """Mark a slot empty (eviction or invalidation)."""
        self.stamp[slot] = 0

    def move(self, src_slot: int, dst_slot: int) -> None:
        """A relocation carries the block's recency with it."""
        self.stamp[dst_slot] = self.stamp[src_slot]
        self.stamp[src_slot] = 0

    def pick_victim(self, slots: np.ndarray) -> int:
        """Local index (into ``slots``) of the policy's victim."""
        return int(np.argmin(self.stamp[slots]))

    def rank(self, victim_slot: int, victim_addr: int, tags: np.ndarray) -> int:
        """Resident entries strictly below the victim's (score, address).

        Scores are ``-stamp`` and unique, so the rank is the number of
        resident blocks with a *larger* stamp; the address tie-break can
        never fire.
        """
        return int(np.count_nonzero(self.stamp > self.stamp[victim_slot]))


class RandomKernel:
    """Stable per-residency random priorities, drawn in insert order."""

    def __init__(self, num_blocks: int, rng: random.Random) -> None:
        self.prio = np.full(num_blocks, np.nan)
        self._stream = MTStream(rng)
        self._buf = np.empty(0)
        self._at = 0

    def _draw(self) -> float:
        if self._at >= len(self._buf):
            self._buf = self._stream.uniform(4096)
            self._at = 0
        value = float(self._buf[self._at])
        self._at += 1
        return value

    def on_hit(self, slot: int) -> None:
        """Hits never change a random priority."""
        pass

    def on_insert(self, slot: int) -> None:
        """Draw the block's stable priority (one random() draw)."""
        self.prio[slot] = self._draw()

    def on_clear(self, slot: int) -> None:
        """Mark a slot empty (eviction or invalidation)."""
        self.prio[slot] = np.nan

    def move(self, src_slot: int, dst_slot: int) -> None:
        """A relocation carries the block's priority with it."""
        self.prio[dst_slot] = self.prio[src_slot]
        self.prio[src_slot] = np.nan

    def pick_victim(self, slots: np.ndarray) -> int:
        """Local index (into ``slots``) of the highest-priority slot."""
        return int(np.argmax(self.prio[slots]))

    def rank(self, victim_slot: int, victim_addr: int, tags: np.ndarray) -> int:
        """Strictly-less count by (priority, address); NaN = empty slot.

        NaN compares False everywhere, so empty slots fall out of both
        terms without an explicit mask. Equal float priorities are
        astronomically rare but the multiset orders them by address, so
        the tie-break term is computed rather than assumed away.
        """
        v = self.prio[victim_slot]
        below = np.count_nonzero(self.prio < v)
        ties = np.count_nonzero((self.prio == v) & (tags < victim_addr))
        return int(below + ties)
