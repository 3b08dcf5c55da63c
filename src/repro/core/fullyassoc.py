"""Fully-associative cache array.

A block may live in any of the B slots; every resident block is a
replacement candidate, so the policy always evicts its globally most
preferred block — the e = 1.0 reference point of the associativity
framework (Section IV-A). Used for conflict-miss accounting and as the
framework's ideal.
"""

from __future__ import annotations

from repro.core.base import CacheArray, Candidate, CommitResult, Replacement
from repro.util.freeslots import FreeSlots


class FullyAssociativeArray(CacheArray):
    """B-slot fully-associative array (modelled as one way of B lines)."""

    def __init__(self, num_blocks: int) -> None:
        if num_blocks < 1:
            raise ValueError(f"num_blocks must be >= 1, got {num_blocks}")
        super().__init__(num_ways=1, lines_per_way=num_blocks)
        self._free = FreeSlots(num_blocks)

    def build_replacement(self, address: int) -> Replacement:
        if address in self._pos:
            raise RuntimeError(f"build_replacement for resident block {address:#x}")
        if self._free:
            return Replacement(address, [0], [self._free.lowest()], [None], tag_reads=1)
        # Every resident block is a candidate. Rather than recording B
        # nodes per miss, mark the replacement exhaustive — the
        # controller resolves the victim through the policy's global
        # order. The single tag read models an idealised CAM lookup.
        return Replacement(address, exhaustive=True, tag_reads=1)

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
