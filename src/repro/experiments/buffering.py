"""Section I motivation experiment: buffering (pinned-block) capacity.

The introduction argues that TM / speculation / replay / monitoring
systems need associativity because they pin blocks in the cache, and
"low associativity makes it difficult to buffer large sets of blocks".
This experiment quantifies it: pin uniformly random blocks until the
first overflow (the fall-back event) and report the usable fraction of
capacity per design.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core import (
    Cache,
    SetAssociativeArray,
    SkewAssociativeArray,
    ZCacheArray,
)
from repro.replacement import LRU


@dataclass
class BufferingPoint:
    design: str
    capacity: int
    pinnable_mean: float
    pinnable_min: int
    pinnable_max: int

    @property
    def fraction(self) -> float:
        return self.pinnable_mean / self.capacity

    def row(self) -> str:
        """One formatted report line."""
        return (
            f"{self.design:14s} pinnable={self.pinnable_mean:7.1f} "
            f"({self.fraction:5.1%} of {self.capacity}) "
            f"range=[{self.pinnable_min}, {self.pinnable_max}]"
        )


def _designs(blocks: int):
    return [
        ("SA-4", lambda s: SetAssociativeArray(4, blocks // 4)),
        (
            "SA-4h",
            lambda s: SetAssociativeArray(
                4, blocks // 4, hash_kind="h3", hash_seed=s
            ),
        ),
        (
            "SA-32h",
            lambda s: SetAssociativeArray(
                32, blocks // 32, hash_kind="h3", hash_seed=s
            ),
        ),
        ("SK-4", lambda s: SkewAssociativeArray(4, blocks // 4, hash_seed=s)),
        ("Z4/16", lambda s: ZCacheArray(4, blocks // 4, levels=2, hash_seed=s)),
        ("Z4/52", lambda s: ZCacheArray(4, blocks // 4, levels=3, hash_seed=s)),
    ]


def pinnable_blocks(array_factory, seed: int) -> int:
    """Pin random write-set blocks until the first overflow."""
    cache = Cache(array_factory(seed), LRU())
    rng = random.Random(seed)
    pinned = 0
    while True:
        result = cache.access(rng.randrange(1 << 30), is_write=True)
        if result.bypassed:
            return pinned
        cache.pin(result.address)
        pinned += 1


def run(blocks: int = 1024, trials: int = 5) -> list[BufferingPoint]:
    """Measure pinnable capacity for every design."""
    if blocks < 64 or blocks % 32:
        raise ValueError("blocks must be a multiple of 32, at least 64")
    points = []
    for name, factory in _designs(blocks):
        counts = [pinnable_blocks(factory, seed) for seed in range(trials)]
        points.append(
            BufferingPoint(
                design=name,
                capacity=blocks,
                pinnable_mean=sum(counts) / len(counts),
                pinnable_min=min(counts),
                pinnable_max=max(counts),
            )
        )
    return points


def render(points: list[BufferingPoint]) -> list[str]:
    """The buffering-capacity report, one design per line."""
    return [
        "Section I: blocks pinnable before overflow (buffering capacity)",
        *("  " + point.row() for point in points),
    ]
