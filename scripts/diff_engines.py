#!/usr/bin/env python3
"""CI gate: the turbo engine is bit-identical to the reference engine.

Three checks, all exact (no tolerances — the ZTurbo contract is IEEE
bit-identity, not statistical agreement):

1. **Fig. 2** at a reduced scale, run once per engine with a fresh
   observability context each. Compared: the analytic and simulated CDF
   arrays, the KS distances, every eviction priority behind them, and
   the full metrics snapshots (modulo the ``engine_turbo`` /
   ``engine_fallback`` capability gauges — presence keys recording
   which engine ran, not measurements).
2. **A CMP design sweep** (one workload, three designs, LRU) replayed
   through the reference engine serially and through the turbo engine
   both serially and under two worker processes. Compared: the complete
   ``CMPResult.to_dict()`` payloads — miss rates, cycles, per-bank
   counters, eviction priorities, walk statistics.

3. **The free-slot view** of a random-candidates cache under
   interleaved accesses and invalidations. The turbo core writes the
   array's ``FreeSlots`` through (``lowest`` / ``add`` / ``discard``)
   and snapshots its ``random.Random`` at construction, so both engines
   must report the same outcome per operation and leave the same lines
   and the same free slots behind.

Exit 0 on identity, 1 with a diff summary otherwise. Scales are small
on purpose: the point is equality, and ``tests/kernels`` fuzzes the
corner cases while ``BENCH_kernels.json`` tracks the speedup.

Usage::

    python scripts/diff_engines.py [--accesses N] [--instructions N]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))


def _strip_engine_gauges(snapshot: dict) -> dict:
    """Drop the turbo capability gauges before comparing snapshots."""
    return {
        k: v
        for k, v in snapshot.items()
        if not k.endswith(("engine_turbo", "engine_fallback"))
    }


def diff_fig2(accesses: int, cache_blocks: int) -> list[str]:
    """Mismatch descriptions for the Fig. 2 comparison (empty = identical).

    ``Fig2Result`` carries plain lists, so ``==`` compares the grids and
    curves element by element.
    """
    from repro.assoc import TrackedPolicy
    from repro.experiments import fig2
    from repro.obs import ObsContext

    runs = {}
    for engine in ("reference", "turbo"):
        obs = ObsContext()
        # Capture every tracker's raw priority stream (fig2 itself only
        # returns the CDF evaluations); creation order is deterministic.
        priorities: list[list[float]] = []
        orig_init = TrackedPolicy.__init__

        def catching_init(self, inner, _p=priorities, _o=orig_init):
            _o(self, inner)
            _p.append(self.priorities)

        TrackedPolicy.__init__ = catching_init
        try:
            result = fig2.run(
                cache_blocks=cache_blocks,
                accesses=accesses,
                seed=0,
                obs=obs,
                engine=engine,
            )
        finally:
            TrackedPolicy.__init__ = orig_init
        runs[engine] = {
            "xs": result.xs,
            "analytic": result.analytic,
            "simulated": result.simulated,
            "priorities": [tuple(p) for p in priorities],
            "metrics": _strip_engine_gauges(obs.metrics.snapshot()),
        }

    ref, turbo = runs["reference"], runs["turbo"]
    problems = []
    if ref["xs"] != turbo["xs"]:
        problems.append("fig2: xs grids differ")
    for n in ref["analytic"]:
        if ref["analytic"][n] != turbo["analytic"][n]:
            problems.append(f"fig2: analytic CDF differs for n={n}")
        r_cdf, r_ks = ref["simulated"][n]
        t_cdf, t_ks = turbo["simulated"][n]
        if r_cdf != t_cdf:
            problems.append(f"fig2: simulated CDF differs for n={n}")
        if r_ks != t_ks:
            problems.append(f"fig2: KS differs for n={n}: {r_ks!r} != {t_ks!r}")
    if ref["priorities"] != turbo["priorities"]:
        problems.append("fig2: eviction-priority streams differ")
    if ref["metrics"] != turbo["metrics"]:
        diff_keys = [
            k
            for k in sorted(set(ref["metrics"]) | set(turbo["metrics"]))
            if ref["metrics"].get(k) != turbo["metrics"].get(k)
        ]
        problems.append(f"fig2: metric snapshots differ at {diff_keys[:10]}")
    return problems


def diff_sweep(instructions: int) -> list[str]:
    """Mismatch descriptions for the CMP sweep comparison."""
    from repro.assoc import TrackedPolicy
    from repro.experiments.runner import ExperimentScale, run_design_sweep
    from repro.sim import L2DesignConfig

    designs = (
        L2DesignConfig(kind="sa", ways=4, hash_kind="h3"),
        L2DesignConfig(kind="skew", ways=4),
        L2DesignConfig(kind="z", ways=4, levels=2),
    )
    scale = ExperimentScale(instructions_per_core=instructions)

    def payload(engine: str, jobs: int) -> dict:
        sweep = run_design_sweep(
            "canneal",
            designs,
            policies=("lru",),
            scale=scale,
            policy_wrapper=TrackedPolicy,
            jobs=jobs,
            engine=engine,
        )
        return {key: r.to_dict() for key, r in sweep.results.items()}

    reference = payload("reference", jobs=1)
    problems = []
    for label, jobs in (("turbo serial", 1), ("turbo 2-worker", 2)):
        got = payload("turbo", jobs=jobs)
        if got != reference:
            diff_keys = [k for k in reference if got.get(k) != reference[k]]
            problems.append(
                f"sweep: {label} differs from reference at {diff_keys}"
            )
    return problems


def diff_free_slots(operations: int = 4000, cache_blocks: int = 64) -> list[str]:
    """Mismatch descriptions for the free-slot write-through comparison."""
    import random

    from repro.assoc import TrackedPolicy
    from repro.core import Cache, RandomCandidatesArray
    from repro.replacement import LRU

    def run(engine: str) -> dict:
        rng = random.Random(11)
        array = RandomCandidatesArray(cache_blocks, 4, seed=5)
        tracked = TrackedPolicy(LRU())
        cache = Cache(array, tracked, engine=engine)
        assert cache.engine == engine
        outcomes = []
        for _ in range(operations):
            address = rng.randrange(4 * cache_blocks)
            if rng.random() < 0.3:
                outcomes.append(cache.invalidate(address))
            else:
                result = cache.access(address, is_write=rng.random() < 0.2)
                outcomes.append((result.hit, result.evicted, result.writeback))
        return {
            "outcomes": outcomes,
            "lines": list(array._lines[0]),
            "free": sorted(array._free),
            "priorities": tuple(tracked.priorities),
        }

    reference, turbo = run("reference"), run("turbo")
    return [
        f"free slots: {key} differ"
        for key in reference
        if reference[key] != turbo[key]
    ]


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--accesses", type=int, default=20_000)
    parser.add_argument("--cache-blocks", type=int, default=512)
    parser.add_argument("--instructions", type=int, default=2_000)
    args = parser.parse_args(argv)

    problems = diff_fig2(args.accesses, args.cache_blocks)
    print(f"fig2: {'identical' if not problems else 'MISMATCH'}")
    sweep_problems = diff_sweep(args.instructions)
    print(f"sweep: {'identical' if not sweep_problems else 'MISMATCH'}")
    problems += sweep_problems
    free_problems = diff_free_slots()
    print(f"free slots: {'identical' if not free_problems else 'MISMATCH'}")
    problems += free_problems

    if problems:
        for p in problems:
            print(f"diff_engines: {p}")
        print("diff_engines: engines diverged — turbo must be bit-identical")
        return 1
    print("diff_engines: reference and turbo engines are bit-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
