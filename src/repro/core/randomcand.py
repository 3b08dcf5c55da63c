"""Random-candidates cache (paper Section IV-B).

An analytical device, not a buildable cache: blocks may live anywhere
(fully-associative placement), and on a replacement the array returns
``n`` slots drawn uniformly at random *with repetition* from the whole
cache. Because each candidate is an unbiased, independent sample of the
resident blocks, the eviction priorities E_i are i.i.d. uniform and the
associativity distribution is exactly F_A(x) = x^n — the uniformity
assumption made flesh. The repo uses it to validate the framework
(tests/assoc) and as the reference line in the Fig. 3 reproduction.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.core.base import CacheArray, Candidate, CommitResult, Replacement
from repro.util.freeslots import FreeSlots


class RandomCandidatesArray(CacheArray):
    """Fully-associative placement, n uniformly random candidates.

    **Draw-order contract.** An evicting fill consumes the array's
    ``random.Random(seed)`` exactly as ``n`` consecutive
    ``rng.randrange(num_blocks)`` calls would, in candidate order, and
    nothing else draws from it: the loop in :meth:`build_replacement`
    is ``Random._randbelow_with_getrandbits`` written out
    (``getrandbits(num_blocks.bit_length())``, redrawn while
    ``>= num_blocks``). Every victim, eviction priority and KS value
    downstream depends on it, and the turbo engine's bit-synced stream
    reproduces the same draws; ``tests/core/test_randomcand.py`` pins
    it against a ``randrange`` oracle. A fill of a free slot draws
    nothing and lands in the lowest-numbered free slot.
    """

    def __init__(self, num_blocks: int, num_candidates: int, seed: int = 0) -> None:
        if num_blocks < 1:
            raise ValueError(f"num_blocks must be >= 1, got {num_blocks}")
        if num_candidates < 1:
            raise ValueError(f"num_candidates must be >= 1, got {num_candidates}")
        super().__init__(num_ways=1, lines_per_way=num_blocks)
        self.num_candidates = num_candidates
        self._rng = random.Random(seed)
        self._free = FreeSlots(num_blocks)

    def build_replacement(self, address: int) -> Replacement:
        if address in self._pos:
            raise RuntimeError(f"build_replacement for resident block {address:#x}")
        if self._free:
            return Replacement(address, [0], [self._free.lowest()], [None], tag_reads=1)
        n = self.num_candidates
        bound = self.lines_per_way
        bits = bound.bit_length()
        getrandbits = self._rng.getrandbits
        slots = []
        for _ in range(n):
            slot = getrandbits(bits)  # the draw-order contract: see the class
            while slot >= bound:
                slot = getrandbits(bits)
            slots.append(slot)
        row = self._lines[0]
        # Sampling is with repetition (paper); repeated draws stay in
        # the record but only one copy can be committed.
        invalid: Optional[set[int]] = None
        if len(set(slots)) != n:
            seen: set[int] = set()
            invalid = set()
            for i, slot in enumerate(slots):
                if slot in seen:
                    invalid.add(i)
                seen.add(slot)
        return Replacement(
            address, [0] * n, slots, [row[slot] for slot in slots],
            invalid=invalid, tag_reads=n,
        )

    def commit_replacement(
        self, repl: Replacement, node: "int | Candidate"
    ) -> CommitResult:
        result = super().commit_replacement(repl, node)
        if result.evicted is None:  # an evicting fill keeps its slot taken
            self._free.discard(self._pos[repl.incoming].index)
        return result

    def evict_address(self, address: int) -> None:
        pos = self._pos.get(address)
        super().evict_address(address)
        if pos is not None:
            self._free.add(pos.index)
