"""Vectorized index hashing over address batches.

An H3 function is an ``index_bits x 48`` binary matrix; output bit ``j``
is the parity of ``address AND row_j``. Over a batch of ``N`` addresses
that is one broadcasted AND plus a popcount-parity — a few numpy ops for
the whole batch instead of ``N * index_bits`` Python-int operations.

:func:`vector_hashes` wraps each member of a scalar hash family in a
vector adapter. H3 and bit-selection get true array paths; anything else
falls back to calling the scalar hash per element. The determinism
contract is that a
vector adapter equals its scalar hash on every address — asserted by
``tests/kernels``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.hashing.base import HashFunction
from repro.hashing.bitsel import BitSelectHash
from repro.hashing.h3 import H3Hash

_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")


def _parity64(masked: np.ndarray) -> np.ndarray:
    """Bitwise parity of each uint64 element (1 if odd popcount)."""
    if _HAS_BITWISE_COUNT:
        return (np.bitwise_count(masked) & 1).astype(np.uint64)
    x = masked.copy()
    for s in (32, 16, 8, 4, 2, 1):
        x ^= x >> np.uint64(s)
    return x & np.uint64(1)


class VectorHash:
    """Base vector adapter: scalar hash applied per element.

    Subclasses override :meth:`indices` with a real array path; this
    default keeps unsupported hash kinds correct.
    """

    def __init__(self, scalar: HashFunction) -> None:
        self.scalar = scalar

    def indices(self, addresses: np.ndarray) -> np.ndarray:
        """Index of each address, as int64."""
        h = self.scalar
        return np.fromiter(
            (h(int(a)) for a in addresses), dtype=np.int64, count=len(addresses)
        )


class VectorH3(VectorHash):
    """Batched H3: parity of ``addresses & row`` per output bit."""

    def __init__(self, scalar: H3Hash) -> None:
        super().__init__(scalar)
        rows = scalar.matrix()
        self._rows = np.array(rows, dtype=np.uint64)
        self._weights = (np.uint64(1) << np.arange(len(rows), dtype=np.uint64))

    def indices(self, addresses: np.ndarray) -> np.ndarray:
        a = addresses.astype(np.uint64, copy=False)
        bits = _parity64(a[:, None] & self._rows[None, :])
        return (bits * self._weights).sum(axis=1).astype(np.int64)


class VectorBitSelect(VectorHash):
    """Batched bit selection: mask the low-order index bits."""

    def __init__(self, scalar: BitSelectHash) -> None:
        super().__init__(scalar)
        self._mask = np.int64(scalar.num_lines - 1)

    def indices(self, addresses: np.ndarray) -> np.ndarray:
        return addresses.astype(np.int64, copy=False) & self._mask


def vector_hash(scalar: HashFunction) -> VectorHash:
    """The best vector adapter for one scalar hash function."""
    if isinstance(scalar, H3Hash):
        return VectorH3(scalar)
    if isinstance(scalar, BitSelectHash):
        return VectorBitSelect(scalar)
    return VectorHash(scalar)


def vector_hashes(family: Sequence[HashFunction]) -> list[VectorHash]:
    """Vector adapters for a whole per-way hash family."""
    return [vector_hash(h) for h in family]
