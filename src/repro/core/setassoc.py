"""Conventional set-associative cache array.

All ways share one index function: plain bit selection by default, or a
hash of the block address (paper Section II-A; the evaluation's baseline
is a 4-way set-associative cache with H3 index hashing). Replacement
candidates are the W blocks of the indexed set; installation never
relocates anything.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.base import CacheArray, Replacement
from repro.hashing.base import HashFunction, make_hash_family

if TYPE_CHECKING:
    from repro.obs import ObsContext


class SetAssociativeArray(CacheArray):
    """W-way set-associative array with ``lines_per_way`` sets.

    Parameters
    ----------
    num_ways:
        Associativity.
    lines_per_way:
        Number of sets (power of two).
    hash_kind:
        Index function: ``"bitsel"`` (conventional), ``"h3"``, ``"mix"``.
    hash_seed:
        Seed for hashed indexing.
    """

    def __init__(
        self,
        num_ways: int,
        lines_per_way: int,
        hash_kind: str = "bitsel",
        hash_seed: int = 0,
        index_hash: Optional[HashFunction] = None,
    ) -> None:
        super().__init__(num_ways, lines_per_way)
        if index_hash is not None:
            if index_hash.num_lines != lines_per_way:
                raise ValueError("index_hash sized for a different set count")
            self.index_hash = index_hash
        else:
            self.index_hash = make_hash_family(hash_kind, 1, lines_per_way, hash_seed)[0]

    def attach_obs(self, obs: "ObsContext") -> None:
        """Also record the set count as an ``array.sets`` gauge."""
        super().attach_obs(obs)
        obs.metrics.scoped("array").gauge("sets").set(self.num_sets)

    @property
    def num_sets(self) -> int:
        """Alias: in a set-associative array, lines per way = sets."""
        return self.lines_per_way

    def set_index(self, address: int) -> int:
        """Set index for a block address."""
        return self.index_hash(address)

    def set_contents(self, index: int) -> list[Optional[int]]:
        """Blocks currently in set ``index``, one entry per way."""
        return [self._lines[w][index] for w in range(self.num_ways)]

    def build_replacement(self, address: int) -> Replacement:
        if address in self._pos:
            raise RuntimeError(f"build_replacement for resident block {address:#x}")
        index = self.index_hash(address)
        ways = self.num_ways
        # One set read resolves all W tags in a set-associative lookup.
        return Replacement(
            address, list(range(ways)), [index] * ways,
            [row[index] for row in self._lines], tag_reads=ways,
        )

    def check_invariants(self) -> None:
        super().check_invariants()
        for addr, pos in self._pos.items():
            expected = self.set_index(addr)
            if pos.index != expected:
                raise AssertionError(
                    f"block {addr:#x} in set {pos.index}, expected {expected}"
                )
