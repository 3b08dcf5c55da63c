"""The competitor: a plain dict + LRU under one lock.

This is what most Python services actually deploy (an
``OrderedDict``-backed LRU behind a mutex), so it is the honest
baseline for the benchmark: hits are a dict move-to-end, misses are a
dict insert plus a popitem eviction, and *everything* serializes on
the single lock. The interface mirrors :class:`~repro.serve.service.
ZServeCache` so the load generator drives both unchanged.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any

from repro.serve.service import Key


class DictLRUServe:
    """Single-lock OrderedDict LRU with the ZServeCache interface."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._data: "OrderedDict[Key, Any]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(self, key: Key) -> tuple[bool, Any]:
        """``(True, value)`` on a hit (refreshing LRU), else ``(False, None)``."""
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self._misses += 1
                return False, None
            self._data.move_to_end(key)
            self._hits += 1
            return True, value

    def put(self, key: Key, value: Any) -> None:
        """Install or refresh ``key``, evicting the LRU entry when full."""
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            elif len(self._data) >= self.capacity:
                self._data.popitem(last=False)
                self._evictions += 1
            self._data[key] = value

    def invalidate(self, key: Key) -> bool:
        """Drop ``key``; True when it was cached."""
        with self._lock:
            cached = key in self._data
            self._data.pop(key, None)
            return cached

    def __len__(self) -> int:
        return len(self._data)

    @property
    def hits(self) -> int:
        """Read hits so far."""
        return self._hits

    @property
    def misses(self) -> int:
        """Read misses so far."""
        return self._misses

    @property
    def hit_rate(self) -> float:
        """Hits over reads (0.0 before the first read)."""
        total = self._hits + self._misses
        return self._hits / total if total else 0.0

    def snapshot(self) -> dict[str, Any]:
        """The service-level aggregates dict (STATS / reports)."""
        return {
            "capacity": self.capacity,
            "entries": len(self),
            "hits": self._hits,
            "misses": self._misses,
            "hit_rate": self.hit_rate,
            "evictions": self._evictions,
        }
