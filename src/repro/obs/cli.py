"""CLI backends for ``zcache-repro stats`` and ``zcache-repro timeline``.

Kept in the obs package (rather than ``repro.cli``) for the same
reason the analysis CLI lives in its package: these surfaces print
wall-clock profiles, which belongs outside the ZS005 no-host-clock
scope covering simulation code.

- ``stats`` runs an experiment under an :class:`~repro.obs.ObsContext`
  and prints the metrics-registry snapshot (text or JSON) plus the
  wall time its spans attribute to each phase name.
- ``timeline`` runs an experiment under an enabled
  :class:`~repro.obs.SpanTracker` (ZTrace), exports the span tree as a
  Perfetto-loadable Chrome trace-event JSON file, and prints the
  critical-path / straggler report. ``--jobs N`` runs a sweep's jobs in
  worker processes, each one parent-side ``job.*`` span; ``--check``
  turns the schema and coverage assertions into the exit code.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Any

from repro.obs import Heartbeat, ObsContext, SpanTracker
from repro.obs import timeline as tl

#: experiments the obs subcommands can drive
EXPERIMENTS = ("fig2", "sweep")


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    """The experiment-selection flags shared by ``stats`` and ``timeline``."""
    parser.add_argument(
        "experiment", choices=EXPERIMENTS,
        help="what to run under the observability context",
    )
    parser.add_argument(
        "--instructions", type=int, default=2_000,
        help="fig2: accesses per candidate count; sweep: instructions "
        "per core (default 2000)",
    )
    parser.add_argument(
        "--blocks", type=int, default=256,
        help="fig2 only: cache size in blocks (default 256, small "
        "enough that evictions dominate at short runs)",
    )
    parser.add_argument(
        "--workload", type=str, default="canneal",
        help="sweep only: workload to capture and replay",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="fig2: trace seed (default 0); sweep: the sweep's seed "
        "(default 1)",
    )
    parser.add_argument(
        "--progress-log", type=str, default=None, metavar="PATH",
        help="append heartbeat progress lines to PATH",
    )


def _run_experiment(
    args: argparse.Namespace, obs: ObsContext, jobs: int = 1
) -> Any:
    """Run the selected experiment under ``obs``; returns its result."""
    if args.experiment == "fig2":
        from repro.experiments import fig2

        return fig2.run(
            cache_blocks=args.blocks,
            accesses=args.instructions,
            seed=0 if args.seed is None else args.seed,
            obs=obs,
            engine=getattr(args, "engine", "reference"),
        )
    from repro.experiments.runner import (
        ExperimentScale,
        baseline_design,
        run_design_sweep,
    )
    from repro.sim import L2DesignConfig

    scale = ExperimentScale(
        instructions_per_core=args.instructions,
        workloads=(args.workload,),
        seed=ExperimentScale.seed if args.seed is None else args.seed,
    )
    designs = (
        baseline_design(),
        L2DesignConfig(kind="z", ways=4, levels=2),
    )
    return run_design_sweep(
        args.workload, designs, scale=scale, obs=obs, jobs=jobs
    )


def run_stats(argv: list[str]) -> int:
    """``zcache-repro stats <experiment>`` — metrics snapshot + profile."""
    parser = argparse.ArgumentParser(
        prog="zcache-repro stats",
        description="Run an experiment under the ZScope metrics registry "
        "and print the hierarchical metrics snapshot plus per-phase "
        "wall-time attribution.",
    )
    _add_run_arguments(parser)
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    args = parser.parse_args(argv)

    spans = SpanTracker(
        seed=0 if args.seed is None else args.seed, process="main"
    )
    obs = ObsContext(
        spans=spans, heartbeat=Heartbeat(path=args.progress_log)
    )
    try:
        _run_experiment(args, obs)
    finally:
        obs.close()
    phases = {
        name: stats["total"]
        for name, stats in tl.phase_stats(spans.spans()).items()
    }

    if args.format == "json":
        payload = {
            "experiment": args.experiment,
            "metrics": obs.metrics.snapshot(),
            "phases": phases,
        }
        print(json.dumps(payload, indent=1, sort_keys=True))
        return 0
    print(obs.metrics.render_text())
    print()
    print("wall-time attribution:")
    width = max(len(name) for name in phases)
    for name, seconds in sorted(phases.items(), key=lambda kv: -kv[1]):
        print(f"{name:<{width}}  {seconds:>9.3f}")
    return 0


#: --check threshold: the root span's children must cover this
#: fraction of the root span, and the root this fraction of the
#: CLI-measured wall time
COVERAGE_FLOOR = 0.90


def run_timeline(argv: list[str]) -> int:
    """``zcache-repro timeline <experiment>`` — ZTrace span timeline.

    Runs the experiment under an enabled span tracker (``--jobs N``
    fans a sweep across worker processes; the parent records each job
    as one ``job.*`` span from submit to result), writes the tree as a
    Chrome trace-event JSON file (drag into https://ui.perfetto.dev),
    and prints the coverage / phase report plus, with
    ``--critical-path``, the longest dependency chain. ``--check``
    additionally validates the exported JSON against the trace-event
    schema and requires span coverage of at least 90% of measured wall
    time, returning a non-zero exit code on violation.
    """
    parser = argparse.ArgumentParser(
        prog="zcache-repro timeline",
        description="Run an experiment with ZTrace span tracing, export "
        "a Perfetto-loadable Chrome trace-event JSON timeline, and "
        "print critical-path and straggler statistics.",
    )
    _add_run_arguments(parser)
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="sweep only: worker processes, each job one parent-side "
        "job.* span (default 1 = in-process)",
    )
    parser.add_argument(
        "--engine", choices=("reference", "turbo"), default="reference",
        help="fig2 only: 'turbo' adds per-batch spans via the TurboCore "
        "batch hook",
    )
    parser.add_argument(
        "--out", type=str, default=None, metavar="PATH",
        help="trace-event JSON path "
        "(default: results/timeline_<experiment>.json)",
    )
    parser.add_argument(
        "--critical-path", action="store_true",
        help="print the longest dependency chain through the span tree",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="validate the exported JSON against the Chrome trace-event "
        "schema and require >=90%% span coverage of measured wall time "
        "(non-zero exit on violation)",
    )
    args = parser.parse_args(argv)

    # Warm the lazy experiment imports up front: the coverage check
    # compares the root span to measured wall time, and first-import
    # cost is not part of the run being attributed.
    import repro.experiments.fig2  # noqa: F401
    import repro.experiments.parallel  # noqa: F401
    import repro.kernels.replay  # noqa: F401

    spans = SpanTracker(
        seed=0 if args.seed is None else args.seed, process="main"
    )
    obs = ObsContext(
        spans=spans, heartbeat=Heartbeat(path=args.progress_log)
    )
    started = spans.now()
    try:
        _run_experiment(args, obs, jobs=args.jobs)
    finally:
        wall = spans.now() - started
        obs.close()

    records = spans.spans()
    report = tl.analyze(records)
    out = tl.write_chrome_trace(
        Path(args.out or f"results/timeline_{args.experiment}.json"), records
    )
    root = report.root
    print(f"timeline: {len(records)} spans -> {out}")
    for line in tl.render_report(
        report, wall=wall, critical_path=args.critical_path
    ):
        print(line)

    if not args.check:
        return 0
    failures: list[str] = []
    with open(out, encoding="utf-8") as f:
        payload = json.load(f)
    failures.extend(tl.validate_chrome_trace(payload))
    if report.coverage < COVERAGE_FLOOR:
        failures.append(
            f"child spans cover {report.coverage * 100:.1f}% of the "
            f"root span (< {COVERAGE_FLOOR * 100:.0f}%)"
        )
    if wall > 0 and root.duration / wall < COVERAGE_FLOOR:
        failures.append(
            f"root span covers {root.duration / wall * 100:.1f}% of "
            f"measured wall time (< {COVERAGE_FLOOR * 100:.0f}%)"
        )
    attributed = sum(s.attributed for s in report.steps)
    if root.duration > 0 and not (
        0.999 <= attributed / root.duration <= 1.001
    ):
        failures.append(
            "critical-path attribution does not partition the root span "
            f"({attributed:.6f}s vs {root.duration:.6f}s)"
        )
    for failure in failures:
        print(f"CHECK FAIL: {failure}")
    if not failures:
        print("timeline checks passed (schema, coverage, attribution)")
    return 1 if failures else 0
