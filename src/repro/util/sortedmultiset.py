"""Sorted multiset with O(log n) rank queries, used for eviction ranks.

The associativity framework (paper Section IV) needs, at every eviction,
the victim's *rank* among all resident blocks under the replacement
policy's global ordering. We keep the resident scores in a sorted list
(bisect-maintained); insertion/removal is O(n) memmove — fast in CPython
for the tens of thousands of blocks a scaled cache holds — and rank
queries are O(log n).
"""

from __future__ import annotations

import bisect
from typing import Any, Iterable


class SortedMultiset:
    """A multiset over comparable items supporting rank queries."""

    def __init__(self, items: Iterable[Any] = ()) -> None:
        self._items = sorted(items)

    def add(self, item: Any) -> None:
        """Insert ``item``, keeping the container sorted."""
        bisect.insort(self._items, item)

    def remove(self, item: Any) -> None:
        """Remove one occurrence of ``item``.

        Raises
        ------
        KeyError
            If ``item`` is not present.
        """
        self.pop_rank(item)

    def rank(self, item: Any) -> int:
        """Number of items strictly less than ``item``."""
        return bisect.bisect_left(self._items, item)

    def pop_rank(self, item: Any) -> int:
        """Remove one occurrence of ``item`` and return its :meth:`rank`.

        ``rank`` then ``remove`` in one bisect. Raises ``KeyError`` if
        ``item`` is not present.
        """
        i = bisect.bisect_left(self._items, item)
        if i >= len(self._items) or self._items[i] != item:
            raise KeyError(item)
        del self._items[i]
        return i

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, item: Any) -> bool:
        i = bisect.bisect_left(self._items, item)
        return i < len(self._items) and self._items[i] == item

    def __iter__(self):
        return iter(self._items)

    def min(self) -> Any:
        """Smallest item."""
        if not self._items:
            raise ValueError("empty multiset")
        return self._items[0]

    def max(self) -> Any:
        """Largest item."""
        if not self._items:
            raise ValueError("empty multiset")
        return self._items[-1]
