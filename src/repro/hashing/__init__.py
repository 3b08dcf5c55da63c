"""Hash function families used to index cache ways.

The paper indexes each zcache way with a different H3 hash function
(Carter & Wegman's universal family, implemented with a few XOR gates per
hash bit in hardware). This package provides:

- :class:`~repro.hashing.base.HashFunction` — the common protocol.
- :class:`~repro.hashing.h3.H3Hash` — the H3 universal family.
- :class:`~repro.hashing.bitsel.BitSelectHash` — plain bit selection,
  i.e. the conventional un-hashed set index.
- :class:`~repro.hashing.mixers.MixHash` — a strong 64-bit finalizer used
  as the paper's "SHA-1" stand-in for hash-quality sweeps.
- :func:`~repro.hashing.base.make_hash_family` — build one independent
  hash per way from a seed: a :class:`~repro.hashing.base.HashFamily`,
  a sequence of functions that also hashes an address for every way at
  once (``family.indices(address)``).
"""

from repro.hashing.base import HashFamily, HashFunction, make_hash_family
from repro.hashing.bitsel import BitSelectHash
from repro.hashing.h3 import H3Hash
from repro.hashing.mixers import MixHash

__all__ = [
    "HashFamily",
    "HashFunction",
    "H3Hash",
    "BitSelectHash",
    "MixHash",
    "make_hash_family",
]
