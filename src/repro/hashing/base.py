"""Common protocol for cache index hash functions.

A hash function maps a block address (an arbitrary non-negative integer)
to a line index in ``[0, num_lines)``. Implementations must be
deterministic: the same address always maps to the same index, because a
block's only valid position in a way is the hash of its address.
"""

from __future__ import annotations

import abc
from typing import Iterable


class HashFunction(abc.ABC):
    """Deterministic map from block address to line index.

    Parameters
    ----------
    num_lines:
        Size of the index space. Must be a power of two (hardware indexes
        are bit vectors) and at least 1.
    """

    def __init__(self, num_lines: int) -> None:
        if num_lines < 1:
            raise ValueError(f"num_lines must be >= 1, got {num_lines}")
        if num_lines & (num_lines - 1):
            raise ValueError(f"num_lines must be a power of two, got {num_lines}")
        self.num_lines = num_lines
        self.index_bits = num_lines.bit_length() - 1

    @abc.abstractmethod
    def __call__(self, address: int) -> int:
        """Return the line index for ``address`` in ``[0, num_lines)``."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(num_lines={self.num_lines})"


class HashFamily(tuple):
    """One hash function per way: an immutable sequence of
    :class:`HashFunction` s over one index space.

    ``family[w](address)`` is way ``w``'s index; :meth:`indices` is all
    of them at once, which is what an array asks for when it places a
    block. Every member must be sized for the same ``num_lines`` — a
    function built for another geometry would index outside its way,
    or inside only part of it.
    """

    def __new__(cls, members: Iterable[HashFunction]) -> "HashFamily":
        self = super().__new__(cls, members)
        if not self:
            raise ValueError("a hash family needs at least one function")
        sizes = {h.num_lines for h in self}
        if len(sizes) != 1:
            raise ValueError(
                f"hash family members disagree on num_lines: {sorted(sizes)}"
            )
        return self

    @property
    def num_lines(self) -> int:
        """The index space every member maps into."""
        return self[0].num_lines

    def indices(self, address: int) -> tuple[int, ...]:
        """``address``'s line index in every way, in way order."""
        return tuple([h(address) for h in self])


def make_hash_family(
    kind: str, num_ways: int, num_lines: int, seed: int = 0
) -> HashFamily:
    """Build one independent hash function per way.

    Parameters
    ----------
    kind:
        ``"h3"``, ``"bitsel"`` or ``"mix"``.
    num_ways:
        Number of functions to create. Each receives a distinct seed so
        the family members are pairwise independent (for ``"bitsel"``
        every way necessarily uses the same index bits, as in a
        conventional set-associative cache).
    num_lines:
        Lines per way.
    seed:
        Base seed; way ``w`` uses ``seed * 1000003 + w``.
    """
    from repro.hashing.bitsel import BitSelectHash
    from repro.hashing.h3 import H3Family, H3Hash
    from repro.hashing.mixers import MixHash

    if num_ways < 1:
        raise ValueError(f"num_ways must be >= 1, got {num_ways}")
    way_seeds = [seed * 1000003 + way for way in range(num_ways)]
    if kind == "h3":
        return H3Family(H3Hash(num_lines, seed=s) for s in way_seeds)
    if kind == "bitsel":
        return HashFamily(BitSelectHash(num_lines) for _ in way_seeds)
    if kind == "mix":
        return HashFamily(MixHash(num_lines, seed=s) for s in way_seeds)
    raise ValueError(f"unknown hash kind: {kind!r}")
