"""Section III-B: figures of merit of the zcache, formulas vs. simulation.

Checks, for a range of (W, L) configurations:

- R(W, L) = W * sum (W-1)^l — against the walk's actual candidate
  counts in a full cache (repeats make simulation fall slightly short);
- T_walk = sum over levels of max(T_tag, (W-1)^l) — the pipelined walk
  latency, compared against the miss service time;
- E_miss = R*E_rt + m*(E_rt+E_rd+E_wt+E_wd) — using measured mean
  relocations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core import Cache, ZCacheArray
from repro.core.zcache import expected_relocations, replacement_candidates
from repro.energy import CacheCostModel
from repro.replacement import LRU

#: tag-array read latency assumed by the paper's walk-latency example
T_TAG_CYCLES = 4


def walk_latency_cycles(ways: int, levels: int, t_tag: int = T_TAG_CYCLES) -> int:
    """T_walk = sum_l max(T_tag, (W-1)^l): accesses pipeline per level."""
    if ways < 1 or levels < 1:
        raise ValueError("ways and levels must be >= 1")
    return sum(max(t_tag, (ways - 1) ** l) for l in range(levels))


@dataclass
class MeritRow:
    ways: int
    levels: int
    r_formula: int
    r_measured: float
    walk_latency: int
    mean_relocations: float
    expected_relocations: float
    e_miss_nj: float

    def row(self) -> str:
        """One formatted report line."""
        return (
            f"W={self.ways} L={self.levels}: R={self.r_formula:<3d} "
            f"measured={self.r_measured:6.2f}  T_walk={self.walk_latency:3d}cy  "
            f"m={self.mean_relocations:.2f} (uniformity {self.expected_relocations:.2f})  "
            f"E_miss={self.e_miss_nj:.3f}nJ"
        )


def run(
    configs=((2, 2), (2, 3), (4, 2), (4, 3), (8, 2)),
    lines_per_way: int = 256,
    accesses: int = 20_000,
    seed: int = 0,
) -> list[MeritRow]:
    """Measure walk statistics for each (W, L) configuration."""
    rows = []
    for ways, levels in configs:
        arr = ZCacheArray(ways, lines_per_way, levels=levels, hash_seed=seed)
        cache = Cache(arr, LRU())
        rng = random.Random(seed)
        footprint = ways * lines_per_way * 8
        for _ in range(accesses):
            cache.access(rng.randrange(footprint))
        mean_relocs = arr.stats.mean_relocations_per_walk
        cost = CacheCostModel(
            max(ways * lines_per_way * 64, 1 << 20),
            ways,
            levels=levels,
            mean_relocations=mean_relocs,
        )
        rows.append(
            MeritRow(
                ways=ways,
                levels=levels,
                r_formula=replacement_candidates(ways, levels),
                r_measured=arr.stats.mean_candidates_per_walk,
                walk_latency=walk_latency_cycles(ways, levels),
                mean_relocations=mean_relocs,
                expected_relocations=expected_relocations(ways, levels),
                e_miss_nj=cost.miss_energy(include_memory=False),
            )
        )
    return rows


def render(rows: list[MeritRow]) -> list[str]:
    """The figures-of-merit comparison, then the paper's worked example."""
    return [
        "Section III-B figures of merit (formula vs simulated walks)",
        *("  " + row.row() for row in rows),
        "Paper example: W=3, L=3, T_tag=4 -> 21 candidates in "
        f"{walk_latency_cycles(3, 3)} cycles (paper: 12)",
    ]
