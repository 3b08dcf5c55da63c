"""Free-slot tracker with an O(log B) lowest-free-slot query.

The fully-associative arrays (``FullyAssociativeArray``,
``RandomCandidatesArray``) fill the lowest-numbered free slot, counting
slots freed by an invalidation. The slots live in a binary min-heap that
holds *exactly* the free slot numbers, so the lowest one is ``heap[0]``
and warming a B-slot array costs O(B log B), not the O(B^2) of a
``min()`` over a set per fill.
"""

from __future__ import annotations

import heapq
from typing import Iterator


class FreeSlots:
    """The free slots of an array whose slots are numbered from 0.

    Set-like where the arrays (and the turbo engine's write-through)
    use it: ``add`` a slot a block left, ``discard`` one a block took,
    truth and ``len`` for "any free?".
    """

    def __init__(self, num_slots: int) -> None:
        # An ascending list already satisfies the heap invariant.
        self._heap = list(range(num_slots))

    def __len__(self) -> int:
        return len(self._heap)

    def __iter__(self) -> Iterator[int]:
        """The free slots, in no particular order."""
        return iter(self._heap)

    def lowest(self) -> int:
        """The lowest-numbered free slot."""
        if not self._heap:
            raise ValueError("no free slot")
        return self._heap[0]

    def add(self, slot: int) -> None:
        """Mark ``slot`` free; it must not be free already."""
        heapq.heappush(self._heap, slot)

    def discard(self, slot: int) -> None:
        """Mark ``slot`` taken (no-op if it is not free).

        O(log B) for the lowest free slot, which is the one a fill
        takes; any other slot costs an O(B) rebuild.
        """
        heap = self._heap
        if heap and heap[0] == slot:
            heapq.heappop(heap)
            return
        try:
            heap.remove(slot)
        except ValueError:
            return
        heapq.heapify(heap)
