"""Strong 64-bit mixing hash, the paper's "SHA-1" stand-in.

Section IV-C notes that replacing H3 with SHA-1 makes the measured
associativity distributions indistinguishable from the uniformity
assumption. Running an actual cryptographic hash per cache index is
pointless in simulation; a 64-bit finalizer (splitmix64 / murmur3-style
avalanche) has the same statistical behaviour for this purpose and is
orders of magnitude faster.
"""

from __future__ import annotations

from repro.hashing.base import HashFunction

_MASK64 = (1 << 64) - 1


def splitmix64(value: int) -> int:
    """One round of the splitmix64 finalizer (full 64-bit avalanche)."""
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


class MixHash(HashFunction):
    """High-quality hash: splitmix64 of (address XOR seeded offset)."""

    def __init__(self, num_lines: int, seed: int = 0) -> None:
        super().__init__(num_lines)
        # Derive a per-instance 64-bit tweak from the seed so different
        # ways produce independent indexes.
        self._tweak = splitmix64(seed & _MASK64) ^ splitmix64((seed >> 64) | 1)
        self._mask = num_lines - 1

    def __call__(self, address: int) -> int:
        if address < 0:
            raise ValueError(f"address must be non-negative, got {address}")
        # splitmix64, inlined: the walk hashes once per way per block, and
        # the call frame cost as much as the arithmetic.
        value = ((address ^ self._tweak) + 0x9E3779B97F4A7C15) & _MASK64
        value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
        return (value ^ (value >> 31)) & self._mask
