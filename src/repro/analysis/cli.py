"""CLI backends for ``zcache-repro lint`` and ``zcache-repro check``.

Kept in the analysis package (rather than ``repro.cli``) so the
tooling — which legitimately measures wall-clock overhead — stays
outside the ZS005 no-host-clock scope that covers simulation code.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from itertools import islice
from pathlib import Path

from repro.analysis.lint import LintEngine
from repro.analysis.sanitizer import InvariantViolation, SanitizedArray


def run_lint(argv: list[str]) -> int:
    """``zcache-repro lint [paths...]`` — run ZSan; exit 1 on findings."""
    parser = argparse.ArgumentParser(
        prog="zcache-repro lint",
        description="Run the ZSan AST lint rules over Python sources. "
        "Exits non-zero when any finding is reported.",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--rules", action="store_true", help="list the rules and exit",
    )
    args = parser.parse_args(argv)

    engine = LintEngine()
    if args.rules:
        for rule in engine.rules:
            print(f"{rule.code}  {rule.name}: {rule.summary}")
        return 0

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        for p in missing:
            print(f"zsan: error: no such file or directory: {p}", file=sys.stderr)
        return 2

    report = engine.lint_paths(args.paths)
    print(report.render_text())
    return report.exit_code


#: the zcache walk configurations ``check --sanitize`` replays
_ZCACHE_CONFIGS = (
    dict(num_ways=4, lines_per_way=128, levels=2),
    dict(num_ways=4, lines_per_way=128, levels=3, repeat_filter="exact"),
    dict(num_ways=2, lines_per_way=256, levels=4, strategy="dfs"),
)

#: ``fig2.run``'s default geometry: blocks per cache, footprint multiple
_FIG2_BLOCKS, _FIG2_FOOTPRINT_MULT = 2048, 8


def _zcache_smoke(args: argparse.Namespace) -> list[SanitizedArray]:
    """Random streams through sanitized zcaches across walk configs."""
    from repro.core import Cache, ZCacheArray
    from repro.replacement import LRU

    arrays = []
    for i, cfg in enumerate(_ZCACHE_CONFIGS):
        array = SanitizedArray(
            ZCacheArray(hash_seed=args.seed + i, seed=args.seed + i, **cfg),
            seed=args.seed,
            deep_check_interval=args.deep_interval,
        )
        cache = Cache(array, LRU())
        rng = random.Random(args.seed + i)
        footprint = 4 * array.num_blocks
        for _ in range(args.accesses):
            cache.access(rng.randrange(footprint))
        arrays.append(array)
    return arrays


def _fig2_replay(
    args: argparse.Namespace, sanitize: bool
) -> tuple[float, list[SanitizedArray]]:
    """Fig. 2's four random-candidates caches on fig2's own streams.

    Returns the seconds taken and, when ``sanitize``, the
    :class:`SanitizedArray` around each array.
    """
    from repro.assoc import TrackedPolicy
    from repro.core import Cache, RandomCandidatesArray
    from repro.experiments.fig2 import CANDIDATE_COUNTS
    from repro.replacement import LRU
    from repro.workloads.patterns import uniform_random

    arrays = []
    t0 = time.perf_counter()
    for n in CANDIDATE_COUNTS:
        seed = args.seed + n
        array = RandomCandidatesArray(_FIG2_BLOCKS, n, seed=seed)
        if sanitize:
            array = SanitizedArray(
                array, seed=args.seed, deep_check_interval=args.deep_interval
            )
            arrays.append(array)
        cache = Cache(array, TrackedPolicy(LRU()))
        footprint = _FIG2_FOOTPRINT_MULT * _FIG2_BLOCKS
        for address in islice(uniform_random(footprint, seed), args.fig2_accesses):
            cache.access(address)
    return time.perf_counter() - t0, arrays


def _verdict(label: str, arrays: list[SanitizedArray]) -> str:
    """Final deep scan of every array, then the one-line report."""
    for array in arrays:
        array.final_check()
    checks = sum(a.checks_run for a in arrays)
    scans = sum(a.deep_scans for a in arrays)
    return f"{label}: ok ({checks} checks, {scans} deep scans, 0 violations)"


def run_check(argv: list[str]) -> int:
    """``zcache-repro check --sanitize|--model|--lockset``.

    ``--sanitize`` replays three zcache walk configurations and Fig. 2's
    four random-candidates caches through :class:`SanitizedArray`, and
    prints the slowdown over the same Fig. 2 replay unsanitized.
    ``--model`` runs the exhaustive bounded model checker: every access
    sequence to ``--model-depth`` over the tiny default geometries,
    checking all registry invariants plus reference↔turbo bit-identity.
    ``--lockset`` runs the dynamic lockset sanitizer: threaded serve
    traffic through an instrumented shard (must come back clean), then
    a planted unlocked shard (must be flagged).
    """
    parser = argparse.ArgumentParser(
        prog="zcache-repro check",
        description="Run one of the invariant checkers.",
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--sanitize", action="store_true",
        help="replay zcaches and Fig. 2's arrays under SanitizedArray",
    )
    mode.add_argument(
        "--model", action="store_true",
        help="run the exhaustive bounded model checker over the tiny "
        "default geometries",
    )
    mode.add_argument(
        "--lockset", action="store_true",
        help="run the dynamic lockset race checker over threaded serve "
        "traffic",
    )
    parser.add_argument(
        "--model-depth", type=int, default=6, metavar="N",
        help="access-sequence depth for --model (default 6)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--accesses", type=int, default=20_000,
        help="accesses per zcache configuration (default 20000)",
    )
    parser.add_argument(
        "--fig2-accesses", type=int, default=60_000,
        help="accesses per Fig. 2 random-candidates array "
        "(default 60000, the experiment's own default)",
    )
    parser.add_argument(
        "--deep-interval", type=int, default=64,
        help="full-state scan cadence, in commits (default 64)",
    )
    args = parser.parse_args(argv)

    if args.model:
        from repro.analysis.modelcheck import run_model_check

        t0 = time.perf_counter()
        result = run_model_check(depth=args.model_depth)
        print(result.render())
        print(f"model check: {time.perf_counter() - t0:.1f}s")
        return 0 if result.ok else 1

    if args.lockset:
        from repro.analysis.lockset import (
            instrumented_replay,
            planted_unlocked_replay,
        )

        t0 = time.perf_counter()
        san = instrumented_replay(seed=args.seed)
        print(san.summary())
        if san.reports:
            for report in san.reports:
                print(f"  {report.invariant}: {report.detail}")
            return 1
        planted = planted_unlocked_replay(seed=args.seed)
        if not planted.reports:
            print("planted unlocked shard was NOT flagged")
            return 1
        print(
            "planted unlocked shard flagged: "
            f"{planted.reports[0].detail}"
        )
        print(f"lockset check: {time.perf_counter() - t0:.1f}s")
        return 0

    try:
        print(_verdict("zcache smoke", _zcache_smoke(args)))
        baseline, _ = _fig2_replay(args, sanitize=False)
        sanitized, arrays = _fig2_replay(args, sanitize=True)
        print(_verdict("fig2 sanitized", arrays))
    except InvariantViolation as exc:
        print(f"INVARIANT VIOLATION\n{exc}")
        return 1
    slowdown = sanitized / baseline if baseline > 0 else float("inf")
    print(
        f"overhead: baseline {baseline:.2f}s, sanitized {sanitized:.2f}s "
        f"({slowdown:.2f}x)"
    )
    return 0
