"""Replacement policy abstract base class."""

from __future__ import annotations

import abc
from typing import Any, Sequence


class ReplacementPolicy(abc.ABC):
    """A policy maintaining a global eviction-preference order of blocks.

    Contract
    --------
    - :meth:`on_insert` / :meth:`on_access` / :meth:`on_evict` are called
      by the cache controller as blocks move through the cache.
    - :meth:`score` returns the block's eviction preference. Higher score
      means "evict me first". The score of a block must only change as a
      result of an ``on_*`` call naming that block, or be reported via
      :meth:`drain_score_updates` — the associativity instrumentation
      mirrors scores into a sorted list and must be told when they
      move.
    - :meth:`select_victim` picks the highest-scoring candidate; policies
      may override (e.g. SRRIP's aging sweep).
    """

    @abc.abstractmethod
    def on_insert(self, address: int) -> None:
        """A block was installed in the cache."""

    @abc.abstractmethod
    def on_access(self, address: int, is_write: bool = False) -> None:
        """A resident block was hit."""

    @abc.abstractmethod
    def on_evict(self, address: int) -> None:
        """A block was evicted; the policy must forget its state."""

    @abc.abstractmethod
    def score(self, address: int) -> Any:
        """Eviction preference of a resident block (higher = evict)."""

    def select_victim(self, candidates: Sequence[int]) -> int:
        """Pick the candidate the policy prefers to evict.

        Default: highest :meth:`score`, first-wins tie-breaking.
        """
        if not candidates:
            raise ValueError("select_victim called with no candidates")
        best = candidates[0]
        best_score = self.score(best)
        for addr in candidates[1:]:
            s = self.score(addr)
            if s > best_score:
                best, best_score = addr, s
        return best

    def drain_score_updates(self) -> list[int]:
        """Addresses whose scores changed outside of ``on_*`` calls.

        Policies that mutate block state during victim selection (e.g.
        SRRIP aging) report the affected addresses here so observers can
        re-read their scores. Default: none.
        """
        return []

    def global_victim(self) -> int | None:
        """The globally most-evictable resident block, if the policy can
        produce it cheaply.

        Fully-associative arrays use this to avoid enumerating every
        resident block as a candidate. Policies without an efficient
        global order return None (the default) and the controller falls
        back to scanning the candidate list.
        """
        return None
