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
from pathlib import Path

from repro.analysis.lint import RULE_REGISTRY, LintEngine, default_rules
from repro.analysis.sanitizer import InvariantViolation, SanitizedArray


def _split_codes(raw: str | None) -> tuple[list[str] | None, list[str]]:
    """Split a ``--select``/``--ignore`` list into known/unknown codes."""
    if raw is None:
        return None, []
    codes = [c.strip().upper() for c in raw.split(",") if c.strip()]
    return (
        [c for c in codes if c in RULE_REGISTRY],
        [c for c in codes if c not in RULE_REGISTRY],
    )


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
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--select", type=str, default=None, metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--ignore", type=str, default=None, metavar="CODES",
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--rules", action="store_true",
        help="list the registered rules and exit",
    )
    args = parser.parse_args(argv)

    if args.rules:
        for rule in default_rules():
            print(f"{rule.code}  {rule.name}: {rule.summary}")
        return 0

    select, unknown = _split_codes(args.select)
    ignore, unknown_ignored = _split_codes(args.ignore)
    if unknown or unknown_ignored:
        bad = sorted(set(unknown) | set(unknown_ignored))
        print(f"zsan: error: unknown rule code(s): {bad}", file=sys.stderr)
        return 2

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        for p in missing:
            print(f"zsan: error: no such file or directory: {p}", file=sys.stderr)
        return 2

    report = LintEngine(select=select, ignore=ignore).lint_paths(args.paths)
    if args.format == "json":
        print(report.render_json())
    else:
        print(report.render_text())
    return report.exit_code


def _sanitized_zcache_smoke(
    seed: int, accesses: int, deep_interval: int
) -> tuple[int, int]:
    """Random streams through sanitized zcaches across walk configs.

    Returns ``(checks_run, deep_scans)`` summed over the configurations;
    any invariant violation propagates as :class:`InvariantViolation`.
    """
    from repro.core import Cache, ZCacheArray
    from repro.replacement import LRU

    checks = scans = 0
    configs = [
        dict(num_ways=4, lines_per_way=128, levels=2),
        dict(num_ways=4, lines_per_way=128, levels=3, repeat_filter="exact"),
        dict(num_ways=2, lines_per_way=256, levels=4, strategy="dfs"),
    ]
    for i, cfg in enumerate(configs):
        array = SanitizedArray(
            ZCacheArray(hash_seed=seed + i, seed=seed + i, **cfg),
            seed=seed,
            deep_check_interval=deep_interval,
        )
        cache = Cache(array, LRU())
        rng = random.Random(seed + i)
        footprint = 4 * array.num_blocks
        for _ in range(accesses):
            cache.access(rng.randrange(footprint))
        array.final_check()
        checks += array.checks_run
        scans += array.deep_scans
    return checks, scans


def run_check(argv: list[str]) -> int:
    """``zcache-repro check [--sanitize]`` — invariant smoke validation.

    Always runs the Fig. 2 experiment (the paper's uniformity
    validation) as the workload. With ``--sanitize``, every array is
    wrapped in :class:`SanitizedArray`, a sanitized zcache smoke runs
    first, and the report includes the sanitizer overhead relative to
    an unsanitized baseline run. With ``--model``, the exhaustive
    bounded model checker runs *instead*: every access sequence to
    ``--model-depth`` over the tiny default geometries, checking all
    registry invariants plus reference↔turbo bit-identity. With
    ``--lockset``, the dynamic lockset sanitizer runs *instead*:
    threaded serve traffic through an instrumented shard (must come
    back clean), then a planted unlocked shard (must be flagged).
    """
    parser = argparse.ArgumentParser(
        prog="zcache-repro check",
        description="Run the invariant-sanitizer validation suite.",
    )
    parser.add_argument(
        "--sanitize", action="store_true",
        help="wrap arrays in SanitizedArray and verify invariants",
    )
    parser.add_argument(
        "--model", action="store_true",
        help="run the exhaustive bounded model checker over the tiny "
        "default geometries instead of the workload suite",
    )
    parser.add_argument(
        "--model-depth", type=int, default=6, metavar="N",
        help="access-sequence depth for --model (default 6)",
    )
    parser.add_argument(
        "--lockset", action="store_true",
        help="run the dynamic lockset race checker over threaded serve "
        "traffic instead of the workload suite",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--accesses", type=int, default=20_000,
        help="accesses per configuration in the zcache smoke "
        "(default 20000)",
    )
    parser.add_argument(
        "--fig2-accesses", type=int, default=60_000,
        help="accesses per candidate count in the Fig. 2 run "
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

    from repro.experiments import fig2

    try:
        if args.sanitize:
            checks, scans = _sanitized_zcache_smoke(
                args.seed, args.accesses, args.deep_interval
            )
            print(
                f"zcache smoke: ok ({checks} checks, {scans} deep scans, "
                "0 violations)"
            )

        t0 = time.perf_counter()
        fig2.run(accesses=args.fig2_accesses, seed=args.seed)
        baseline = time.perf_counter() - t0

        if not args.sanitize:
            print(f"fig2 baseline: ok in {baseline:.2f}s (no sanitizer)")
            return 0

        sanitizers: list[SanitizedArray] = []

        def wrap(array):
            wrapped = SanitizedArray(
                array, seed=args.seed, deep_check_interval=args.deep_interval
            )
            sanitizers.append(wrapped)
            return wrapped

        t0 = time.perf_counter()
        fig2.run(accesses=args.fig2_accesses, seed=args.seed, wrap_array=wrap)
        sanitized = time.perf_counter() - t0
        for s in sanitizers:
            s.final_check()
    except InvariantViolation as exc:
        print(f"INVARIANT VIOLATION\n{exc}")
        return 1

    checks = sum(s.checks_run for s in sanitizers)
    scans = sum(s.deep_scans for s in sanitizers)
    slowdown = sanitized / baseline if baseline > 0 else float("inf")
    print(
        f"fig2 sanitized: ok ({checks} checks, {scans} deep scans, "
        f"0 violations)"
    )
    print(
        f"overhead: baseline {baseline:.2f}s, sanitized {sanitized:.2f}s "
        f"({slowdown:.2f}x)"
    )
    return 0
