"""Two-phase BFS zcache controller (paper Section III-D).

The hybrid "BFS+DFS" idea from the paper, in its BFS+BFS form: after the
primary walk selects victim N, a *second* breadth-first walk rooted at
N's alternative positions looks for somewhere to move N. The final
eviction victim is the best block across both walks — roughly doubling
the number of replacement candidates while reusing the same walk-table
state, at the cost of a second walk's tag bandwidth.

Commit order when the second phase wins:

1. evict the phase-2 victim, relocate the phase-2 path, and move N into
   the freed phase-2 root (N's own alternative position);
2. N's old slot is now empty: relocate the phase-1 path into it and
   install the incoming block at the phase-1 root.

Phase-2 relocations can invalidate the recorded phase-1 path (a
relocated block can land on a phase-1 ancestor position). The stale
commit is detected by the array's consistency guard and handled by
re-walking — the hardware equivalent of restarting the replacement,
which the paper's controller also needs for its benign races.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.base import ArrayProxy, Replacement
from repro.core.controller import AccessResult, Cache
from repro.core.zcache import ZCacheArray
from repro.obs import ObsContext
from repro.replacement.base import ReplacementPolicy


class StaleWalkError(RuntimeError):
    """A prepared walk no longer matches the array and must be redone.

    Raised by :meth:`TwoPhaseZCache.commit_prepared` *before any
    mutation* when the freshness check rejects a plan. Distinct from
    the array's internal stale-path ``RuntimeError`` (which the
    controller handles in-band) so callers running the concurrent
    off-lock discipline can retry without a bare ``except``.
    """


class TwoPhaseZCache(Cache):
    """A :class:`Cache` whose misses run the two-phase replacement.

    Phase bookkeeping (``second_phase_walks`` / ``second_phase_wins`` /
    ``stale_retries``) lives in the metrics registry alongside the
    controller counters and is exposed through read-only properties.
    """

    def __init__(
        self,
        array: ZCacheArray,
        policy: ReplacementPolicy,
        name: str = "z2p",
        obs: Optional[ObsContext] = None,
        engine: str = "reference",
    ) -> None:
        # Accept the array itself or proxies over it (ZServe's soak
        # harness wraps every shard in the ZSan runtime sanitizer).
        unwrapped: Any = array
        while isinstance(unwrapped, ArrayProxy):
            unwrapped = unwrapped.array
        if not isinstance(unwrapped, ZCacheArray):
            raise TypeError("TwoPhaseZCache requires a ZCacheArray")
        # ``engine="turbo"`` is accepted for interface symmetry but the
        # two-phase protocol has no kernel implementation, so
        # try_build_turbo declines it and the reference path runs.
        super().__init__(array, policy, name=name, obs=obs, engine=engine)
        registry = self.stats.registry
        self._c_sp_walks = registry.counter("second_phase_walks")
        self._c_sp_wins = registry.counter("second_phase_wins")
        self._c_stale_retries = registry.counter("stale_retries")

    @property
    def second_phase_walks(self) -> int:
        """Number of phase-2 (reinsertion) walks performed."""
        return self._c_sp_walks.value

    @property
    def second_phase_wins(self) -> int:
        """Misses where phase 2 relocated the phase-1 victim instead."""
        return self._c_sp_wins.value

    @property
    def stale_retries(self) -> int:
        """Commits retried because a recorded walk path went stale."""
        return self._c_stale_retries.value

    # -- off-lock service surface (ZServe) ----------------------------------
    #
    # The concurrent discipline from "Limited Associativity Makes
    # Concurrent Software Caches a Breeze": the walk (candidate
    # collection) runs *outside* the shard lock, then the commit
    # re-validates the recorded (position, address) pairs *under* the
    # lock and either applies the relocations or rejects the plan as
    # stale. Nothing here is used by the simulator paths — ``access``
    # remains the single-threaded protocol and is bit-identical to the
    # pre-split behaviour.

    def prepare_fill(self, address: int) -> Replacement:
        """Phase 1: walk the array and record candidates, mutating nothing.

        Safe to call without holding the owning shard's lock: the walk
        only reads. A concurrent commit can make the returned plan
        stale — :meth:`commit_prepared` detects that and raises
        :class:`StaleWalkError` so the caller can re-prepare.
        """
        if address < 0:
            raise ValueError(f"address must be non-negative, got {address}")
        return self.array.build_replacement(address)

    def plan_is_fresh(self, repl: Replacement) -> bool:
        """True when every recorded candidate still matches the array.

        A plan is stale when the incoming block became resident (a
        racing fill won) or any walked position no longer holds the
        block the walk saw there (an invalidation or another commit's
        relocation moved it). Callers must hold the shard lock for the
        answer to remain true through a subsequent commit.
        """
        if repl.incoming in self.array:
            return False
        return self.array.still_holds(repl)

    def commit_prepared(
        self, address: int, repl: Replacement, is_write: bool = False
    ) -> AccessResult:
        """Phase 2: validate a prepared plan and commit it under the lock.

        Three outcomes:

        - the block became resident since the walk → a plain hit, scored
          and counted exactly like :meth:`access`;
        - the plan went stale → ``stale_retries`` is bumped and
          :class:`StaleWalkError` raised, with **no** array mutation;
        - the plan is fresh → the miss is counted and the fill commits
          through the normal two-phase replacement.
        """
        if address != repl.incoming:
            raise ValueError(
                f"plan was prepared for {repl.incoming:#x}, "
                f"not {address:#x}"
            )
        if self.array.lookup(address) is not None:
            return self.access(address, is_write)
        if not self.plan_is_fresh(repl):
            self._c_stale_retries.value += 1
            raise StaleWalkError(
                f"prepared walk for {address:#x} went stale; re-prepare"
            )
        return self._fill(address, is_write, repl)

    # -- the two-phase replacement ---------------------------------------------
    def _replace(self, repl: Replacement, node: int) -> AccessResult:
        """Phase 2: try to move the phase-1 victim instead of evicting it.

        The policy weighs victim1 against the reinsertion walk's blocks
        (a free slot always wins): if some phase-2 block is more
        evictable, victim1 moves there instead. When phase 2 wins the
        order is part of the contract: phase-2 commit, then phase-2
        evict-accounting, then the phase-1 commit.
        """
        victim1 = repl.addresses[node]
        assert victim1 is not None
        repl2 = self.array.build_reinsertion(victim1)
        self._c_sp_walks.value += 1
        self._account_walk(repl2)

        node2 = self._pick(repl2, skip=victim1)
        if node2 >= 0:
            evicted2 = repl2.addresses[node2]  # None = free slot found
            try:
                commit2 = self.array.commit_reinsertion(repl2, node2)
            except RuntimeError as exc:
                # Only the array's own stale-path guard (a plain
                # RuntimeError) triggers the retry; subclasses such as
                # the sanitizer's InvariantViolation must propagate.
                if type(exc) is not RuntimeError:
                    raise
                # Stale phase-2 path; fall back to plain eviction.
                self._c_stale_retries.value += 1
            else:
                self._c_sp_wins.value += 1
                self._account_commit(commit2)
                if evicted2 is not None:
                    self._evict(evicted2)
                else:
                    self._c_fills_empty.value += 1
                # victim1 moved away: its recorded line is free now, and
                # the incoming block lands through the phase-1 path there.
                repl.addresses[node] = None
                return self._land(repl, node, evicted2)

        writeback = self._evict(victim1)
        return self._land(repl, node, victim1, writeback)

    def _land(
        self,
        repl: Replacement,
        node: int,
        evicted: Optional[int],
        writeback: bool = False,
    ) -> AccessResult:
        """Install the incoming block through ``node``'s path, re-walking
        once if a phase-2 relocation rewrote one of its ancestors."""
        address = repl.incoming
        try:
            commit = self.array.commit_replacement(repl, node)
        except RuntimeError as exc:
            if type(exc) is not RuntimeError:
                raise  # sanitizer violations are not retryable staleness
            self._c_stale_retries.value += 1
            # A plain eviction's victim is already accounted as gone
            # but still sits in the array: free its slot for the re-walk.
            victim = repl.addresses[node]
            if victim is not None and victim in self.array:
                self.array.evict_address(victim)
            fresh = self.array.build_replacement(address)
            target = self._pick(fresh)
            if target < 0:
                return self._bypass(address)
            extra = fresh.addresses[target]
            if extra is not None:
                # The walk may not reach the freed slot: evict the best
                # fresh candidate too (an *extra* victim that
                # ``AccessResult.evicted`` does not report).
                self._evict(extra)
            commit = self.array.commit_replacement(fresh, target)
        relocations = self._account_commit(commit)
        self.policy.on_insert(address)
        return AccessResult(address, False, evicted, writeback, relocations)
