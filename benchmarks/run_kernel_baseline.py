#!/usr/bin/env python3
"""Record the ZTurbo benchmark trajectory into ``BENCH_kernels.json``.

Times the full-scale Fig. 2 experiment (2048 blocks, 60k accesses per
candidate count — the hot loop the kernels were built for) on both
engines, asserts the simulated curves come out bit-identical, and
appends one measurement entry to ``benchmarks/BENCH_kernels.json``. The
file is committed: successive entries form the persistent trajectory
the README quotes and reviewers can diff.

Not collected by pytest (``run_`` prefix, and ``testpaths`` only covers
``tests/``); run it by hand when the kernels change materially::

    python benchmarks/run_kernel_baseline.py
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import time
from pathlib import Path

from repro.experiments.fig2 import run as fig2_run

OUT = Path(__file__).with_name("BENCH_kernels.json")


def timed_run(engine: str, accesses: int, cache_blocks: int):
    """(seconds, Fig2Result) for one full-scale run on ``engine``."""
    t0 = time.perf_counter()
    result = fig2_run(
        cache_blocks=cache_blocks, accesses=accesses, seed=0, engine=engine
    )
    return time.perf_counter() - t0, result


def identical(a, b) -> bool:
    """True when two Fig2Results carry bit-identical simulated curves."""
    return a.simulated == b.simulated


def git_head() -> str:
    """The current commit id, or 'unknown' outside a work tree."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True,
            cwd=Path(__file__).parent,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--accesses", type=int, default=60_000)
    parser.add_argument("--cache-blocks", type=int, default=2048)
    parser.add_argument("--rounds", type=int, default=2)
    args = parser.parse_args(argv)

    timed_run("turbo", args.accesses // 10, args.cache_blocks)  # warm-up
    ref_times, turbo_times = [], []
    for _ in range(args.rounds):
        ref_s, ref = timed_run("reference", args.accesses, args.cache_blocks)
        turbo_s, turbo = timed_run("turbo", args.accesses, args.cache_blocks)
        if not identical(ref, turbo):
            print("BENCH ABORTED: engines disagree — fix before benchmarking")
            return 1
        ref_times.append(ref_s)
        turbo_times.append(turbo_s)

    ref_s, turbo_s = min(ref_times), min(turbo_times)
    entry = {
        "date": time.strftime("%Y-%m-%d"),
        "commit": git_head(),
        "workload": {
            "experiment": "fig2",
            "cache_blocks": args.cache_blocks,
            "accesses_per_n": args.accesses,
        },
        "reference_seconds": round(ref_s, 3),
        "turbo_seconds": round(turbo_s, 3),
        "speedup": round(ref_s / turbo_s, 2),
        "bit_identical": True,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    history = json.loads(OUT.read_text()) if OUT.exists() else []
    history.append(entry)
    OUT.write_text(json.dumps(history, indent=2) + "\n")
    print(
        f"fig2 reference {ref_s:.2f}s  turbo {turbo_s:.2f}s  "
        f"speedup {entry['speedup']}x  -> {OUT.name}"
    )
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
