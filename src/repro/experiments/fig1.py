"""Fig. 1: the replacement process, step by step.

Recreates the paper's worked example — a 3-way zcache with 8 lines per
way, a miss expanding three walk levels (3 + 6 + 12 = 21 candidates),
the victim chosen by the policy, the relocation chain, and the Fig. 1g
timeline showing the whole process completing well inside the 100-cycle
memory fetch.

The concrete cache contents differ from the paper's letters A-Z (those
were hand-picked); the structure — tree shape, counts, timeline — is
the reproduction target.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core import Cache, ZCacheArray
from repro.core.timeline import ReplacementTimeline, schedule_replacement, walk_cycles
from repro.replacement import LRU

WAYS = 3
LINES = 8
LEVELS = 3


@dataclass
class Fig1Result:
    candidates_per_level: dict
    total_candidates: int
    victim_level: int
    relocations: int
    walk_cycles: int
    timeline: ReplacementTimeline


def run(seed: int = 4) -> Fig1Result:
    """Fill the example cache, trigger one miss, dissect the process."""
    arr = ZCacheArray(WAYS, LINES, levels=LEVELS, hash_seed=seed)
    cache = Cache(arr, LRU())
    rng = random.Random(seed)
    # Fill completely so the walk sees no free slots (as in Fig. 1a).
    attempts = 0
    while arr.occupancy < 1.0:
        cache.access(rng.randrange(10_000))
        attempts += 1
        if attempts > 100_000:  # pragma: no cover - seed safety net
            raise RuntimeError("failed to fill the example cache")
    # One more unique address is the Fig. 1 miss for 'Y'. Its walk,
    # dissected level by level, is the one the miss below repeats.
    incoming = 999_999
    repl = arr.build_replacement(incoming)
    per_level = dict(enumerate(repl.level_counts()))
    committed = [*arr.stats.level_hist, *[0] * LEVELS]
    result = cache.access(incoming)
    victim_level = next(
        level
        for level, count in enumerate(arr.stats.level_hist)
        if count != committed[level]
    )
    timeline = schedule_replacement(WAYS, LEVELS, result.relocations)
    return Fig1Result(
        candidates_per_level=per_level,
        total_candidates=len(repl.addresses),
        victim_level=victim_level,
        relocations=result.relocations,
        walk_cycles=walk_cycles(WAYS, LEVELS),
        timeline=timeline,
    )


def render(result: Fig1Result) -> list[str]:
    """The Fig. 1 walkthrough, timeline included."""
    return [
        f"Fig.1: replacement in a {WAYS}-way, {LINES}-lines/way zcache "
        f"({LEVELS}-level walk)",
        f"candidates per level: {result.candidates_per_level} "
        f"(paper: {{0: 3, 1: 6, 2: 12}})",
        f"total candidates: {result.total_candidates} (paper: 21)",
        f"victim at level {result.victim_level} -> "
        f"{result.relocations} relocation(s)",
        f"walk latency: {result.walk_cycles} cycles (paper: 12, T_tag=4)",
        f"process done at {result.timeline.process_done} cycles; miss "
        f"served at {result.timeline.miss_served} "
        f"({'hidden' if result.timeline.hidden else 'EXPOSED'})",
        "",
        *result.timeline.render(),
    ]
