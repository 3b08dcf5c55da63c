"""H3 universal hash family (Carter & Wegman, 1977).

An H3 function over ``b``-bit keys producing ``i``-bit indexes is defined
by an ``i x b`` binary matrix ``Q``: bit ``j`` of the output is the parity
(XOR-reduction) of ``key AND Q[j]``. In hardware each output bit costs a
few XOR gates. The map is linear over GF(2) — ``h(a ^ b) == h(a) ^ h(b)``
— so the hash of a key is the XOR of the hashes of its bytes, each taken
in place with the other bytes zero: six lookups in 256-entry tables
(byte-sliced tabulation), built on first use — a function that is only
ever hashed through its :class:`H3Family` never builds its own. The
tables are the only state besides the matrix, and their size does not
depend on how many keys are hashed.
"""

from __future__ import annotations

import random
from functools import cached_property
from typing import Iterable, Sequence

from repro.hashing.base import HashFamily, HashFunction

#: Number of address bits the matrix covers. 48 bits of block address is
#: plenty for simulated workloads (256 TB of cache-line address space).
ADDRESS_BITS = 48


def _byte_tables(rows: Sequence[int]) -> tuple[list[int], ...]:
    """Tabulate the linear map whose output bit ``j`` is the parity of
    ``key & rows[j]``, one 256-entry table per key byte.

    ``tables[k][b]`` is the image of the key whose byte ``k`` is ``b``
    and whose other bytes are zero. Each table doubles eight times:
    setting one more key bit XORs that bit's matrix column into every
    entry so far, so an entry costs one XOR, not a parity per row.
    """
    tables = []
    for low_bit in range(0, ADDRESS_BITS, 8):
        table = [0]
        for position in range(low_bit, low_bit + 8):
            column = 0
            for bit, row in enumerate(rows):
                column |= (row >> position & 1) << bit
            table += [entry ^ column for entry in table]
        tables.append(table)
    return tuple(tables)


class H3Hash(HashFunction):
    """One member of the H3 family, selected by ``seed``.

    Only the low ``ADDRESS_BITS`` (48) bits of an address are hashed;
    higher bits are ignored, as ``address & row`` ignores them. Simulated
    block addresses fit. ZServe's 63-bit key addresses do not (its
    shards default to ``MixHash``, but ``hash_kind="h3"`` is allowed):
    two keys that differ only above bit 47 share every index. The keys
    are full-width mixer outputs, so that is a 48-bit collision like any
    other, and nothing aliases that did not alias under the parity loop.

    Parameters
    ----------
    num_lines:
        Index space size (power of two).
    seed:
        Selects the random binary matrix. Two instances with different
        seeds are pairwise-independent hash functions.
    """

    def __init__(self, num_lines: int, seed: int = 0) -> None:
        super().__init__(num_lines)
        rng = random.Random(seed)
        # One random row (an ADDRESS_BITS-bit mask) per output bit. Rows
        # must be non-zero or the corresponding output bit is constant.
        self._rows: list[int] = []
        for _ in range(self.index_bits):
            row = 0
            while row == 0:
                row = rng.getrandbits(ADDRESS_BITS)
            self._rows.append(row)
        self.seed = seed

    @cached_property
    def _tables(self) -> tuple[list[int], ...]:
        return _byte_tables(self._rows)

    def __call__(self, address: int) -> int:
        if address < 0:
            raise ValueError(f"address must be non-negative, got {address}")
        t0, t1, t2, t3, t4, t5 = self._tables
        return (
            t0[address & 255]
            ^ t1[address >> 8 & 255]
            ^ t2[address >> 16 & 255]
            ^ t3[address >> 24 & 255]
            ^ t4[address >> 32 & 255]
            ^ t5[address >> 40 & 255]
        )

    def matrix(self) -> list[int]:
        """Return the row masks defining this function (for inspection)."""
        return list(self._rows)


class H3Family(HashFamily):
    """A family of :class:`H3Hash` functions hashed in one pass.

    W functions of ``i`` output bits are one linear map of ``W * i``
    output bits (their matrices stacked), so one set of byte tables
    yields every way's index packed side by side, way 0 lowest.
    """

    def __init__(self, members: Iterable[H3Hash]) -> None:
        # The members are already in place: tuple.__new__ took them.
        bits = self[0].index_bits
        self._shifts = tuple(bits * way for way in range(len(self)))
        self._mask = (1 << bits) - 1

    @cached_property
    def _tables(self) -> tuple[list[int], ...]:
        return _byte_tables([row for h in self for row in h.matrix()])

    def indices(self, address: int) -> tuple[int, ...]:
        if address < 0:
            raise ValueError(f"address must be non-negative, got {address}")
        t0, t1, t2, t3, t4, t5 = self._tables
        packed = (
            t0[address & 255]
            ^ t1[address >> 8 & 255]
            ^ t2[address >> 16 & 255]
            ^ t3[address >> 24 & 255]
            ^ t4[address >> 32 & 255]
            ^ t5[address >> 40 & 255]
        )
        mask = self._mask
        return tuple([packed >> shift & mask for shift in self._shifts])
