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
import sys
from array import array

from repro.core.base import CacheArray, Candidate, CommitResult, Replacement
from repro.util.freeslots import FreeSlots


class RandomCandidatesArray(CacheArray):
    """Fully-associative placement, n uniformly random candidates.

    **Draw-order contract.** The evicting fills' slots, in order, are
    the sequence ``random.Random(seed).randrange(num_blocks)`` yields
    (``tests/core/test_randomcand.py`` pins it); a fill of a free slot
    draws nothing and lands in the lowest-numbered free slot. The array
    draws ahead, in blocks of 32·m bits: one ``getrandbits(32 * m)``
    (m = :attr:`POOL_WORDS`) is the next m words, least significant
    first, that m ``randrange`` attempts would consume, and an attempt
    keeps ``word >> (32 - num_blocks.bit_length())`` when it is below
    ``num_blocks``. So nothing else may draw from ``_rng``, which runs
    ahead of the pooled slots, and ``num_blocks < 2**32``.

    The pool is a plain list: a refill shifts the whole block right by
    ``32 - k`` and masks each word's low k bits, reads the bytes as an
    ``array("I")`` of those tops (byte-swapped on a big-endian host) and
    keeps each top below ``num_blocks``. A repeated slot stays in the
    draw unmarked: it is the same line, holding the same block.
    """

    #: Mersenne-Twister words drawn per refill of the slot pool
    POOL_WORDS = 4096

    def __init__(self, num_blocks: int, num_candidates: int, seed: int = 0) -> None:
        if not 1 <= num_blocks < 1 << 32:
            raise ValueError(f"num_blocks must be in [1, 2**32), got {num_blocks}")
        if num_candidates < 1:
            raise ValueError(f"num_candidates must be >= 1, got {num_candidates}")
        super().__init__(num_ways=1, lines_per_way=num_blocks)
        self.num_candidates = num_candidates
        self._rng = random.Random(seed)
        self._free = FreeSlots(num_blocks)
        #: drawn slots, ``_pool[_taken:]`` not handed out yet
        self._pool: list[int] = []
        self._taken = 0

    def _refill(self) -> list[int]:
        """Replace the pool by its unused slots plus at least one n-slot draw."""
        bound = self.lines_per_way
        k = bound.bit_length()
        words = self.POOL_WORDS
        # Each word's top k bits, moved to its bottom by one shift and one
        # mask of the whole block rather than one shift per word.
        low_k = int.from_bytes(((1 << k) - 1).to_bytes(4, "little") * words, "little")
        pool = self._pool[self._taken:]
        while len(pool) < self.num_candidates:
            block = (self._rng.getrandbits(32 * words) >> (32 - k)) & low_k
            tops = array("I", block.to_bytes(4 * words, "little"))
            if sys.byteorder == "big":
                tops.byteswap()
            pool += [top for top in tops if top < bound]
        self._pool, self._taken = pool, 0
        return pool

    def build_replacement(self, address: int) -> Replacement:
        if address in self._pos:
            raise RuntimeError(f"build_replacement for resident block {address:#x}")
        if self._free:
            return Replacement(address, [0], [self._free.lowest()], [None], tag_reads=1)
        n = self.num_candidates
        pool, start = self._pool, self._taken
        end = start + n
        if end > len(pool):
            pool, start, end = self._refill(), 0, n
        self._taken = end
        slots = pool[start:end]  # the draw-order contract: see the class
        row = self._lines[0]
        return Replacement(
            address, [0] * n, slots, [row[slot] for slot in slots], tag_reads=n
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
