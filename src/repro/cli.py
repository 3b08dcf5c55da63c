"""Command-line interface: ``zcache-repro <experiment> [options]``.

Examples::

    zcache-repro table2
    zcache-repro fig3 --instructions 4000
    zcache-repro fig4 --workloads canneal,cactusADM --instructions 5000
    zcache-repro roster
    zcache-repro lint src/repro
    zcache-repro lint --deep --fix src/repro
    zcache-repro check --sanitize
    zcache-repro stats fig2 --format json
    zcache-repro trace fig2 --instructions 2000
    zcache-repro timeline sweep --jobs 2 --out trace.json --critical-path
    zcache-repro sweep --jobs 4 --workloads canneal,gcc --checkpoint ck.json
    zcache-repro faults --campaign --minimize --jobs 2 --json faults.json
    zcache-repro serve --shards 8 --port 9401
    zcache-repro loadgen --workload canneal --workers 4 --sanitize

``lint`` and ``check`` are the correctness-tooling subcommands (the
ZSan static analyzer and the runtime invariant sanitizer; see
``docs/lint_rules.md``); ``stats`` and ``trace`` are the ZScope
observability subcommands (metrics snapshots and JSONL event traces;
see ``docs/observability.md``); everything else regenerates a paper
artifact.
"""

from __future__ import annotations

import argparse
import importlib
import sys

from repro.experiments.runner import ExperimentScale


#: Subcommands that own their argument parsing (they take paths and
#: flags the experiment parser must not see). One table both dispatches
#: them and renders the epilog: ``name -> ("module:function", help)``.
SUBCOMMANDS = {
    "lint": ("repro.analysis.cli:run_lint",
             "ZSan static analysis; --deep whole-program rules, --fix repairs"),
    "check": ("repro.analysis.cli:run_check",
              "--sanitize runtime invariants, --model checker, --lockset races"),
    "stats": ("repro.obs.cli:run_stats",
              "ZScope metrics snapshot of an experiment"),
    "trace": ("repro.obs.cli:run_trace",
              "JSONL event trace of an experiment + offline summary"),
    "timeline": ("repro.obs.cli:run_timeline",
                 "ZTrace span timeline: Perfetto export + critical path"),
    "sweep": ("repro.experiments.parallel:run_sweep_cli",
              "parallel design sweep (--jobs N) with checkpoint/resume"),
    "faults": ("repro.faults.cli:run_faults_cli",
               "ZFault campaign: fault injection under the sanitizer"),
    "serve": ("repro.serve.cli:run_serve_cli",
              "boot the ZServe concurrent key-value cache over TCP"),
    "loadgen": ("repro.serve.cli:run_loadgen_cli",
                "replay a workload proxy against ZServe: req/s, latency"),
}


#: experiments whose module renders its own table: ``<module>.main()``
_PRINT_THEIR_OWN = (
    "fig1", "table1", "table2", "merit", "buffering", "conflict",
    "hashquality", "pressure",
)


def _scale_from_args(args) -> ExperimentScale:
    workloads = tuple(args.workloads.split(",")) if args.workloads else None
    return ExperimentScale(
        instructions_per_core=args.instructions,
        workloads=workloads,
        seed=args.seed,
    )


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in SUBCOMMANDS:
        module, _, function = SUBCOMMANDS[argv[0]][0].partition(":")
        return getattr(importlib.import_module(module), function)(argv[1:])
    parser = argparse.ArgumentParser(
        prog="zcache-repro",
        description="Reproduce the tables and figures of the zcache paper "
        "(Sanchez & Kozyrakis, MICRO 2010).",
        epilog="additional subcommands (each has its own --help):\n"
        + "\n".join(
            f"  {name:<9} {text}" for name, (_, text) in SUBCOMMANDS.items()
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "experiment",
        choices=[
            "fig1", "fig2", "fig3", "fig4", "fig5",
            "table1", "table2", "bandwidth", "merit", "buffering",
            "conflict", "hashquality", "pressure", "roster",
        ],
        help="which artifact to regenerate",
    )
    parser.add_argument(
        "--instructions", type=int, default=6_000,
        help="instructions per core per workload (default 6000)",
    )
    parser.add_argument(
        "--workloads", type=str, default=None,
        help="comma-separated workload subset (default: all 72)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--engine", choices=("reference", "turbo"), default="reference",
        help="cache access engine: 'turbo' runs the ZTurbo vectorized "
        "kernels where supported (bit-identical results; currently "
        "honoured by fig2)",
    )
    parser.add_argument(
        "--json", type=str, default=None, metavar="PATH",
        help="also write structured results as JSON (simulation "
        "experiments: fig3/fig4/fig5/bandwidth)",
    )
    parser.add_argument(
        "--svg", type=str, default=None, metavar="DIR",
        help="also render figures as SVG into DIR (fig2/fig3/fig4/fig5)",
    )
    args = parser.parse_args(argv)

    if args.experiment == "roster":
        from repro.workloads import WORKLOADS

        for spec in WORKLOADS.values():
            print(spec.describe())
        return 0
    if args.experiment == "fig2":
        from repro.experiments import fig2

        result = fig2.run(engine=args.engine)
        for line in result.rows():
            print(line)
        if args.svg:
            from repro.viz import fig2_svg

            for path in fig2_svg(args.svg, result):
                print(f"SVG written to {path}")
        return 0
    if args.experiment in _PRINT_THEIR_OWN:
        importlib.import_module(f"repro.experiments.{args.experiment}").main()
        return 0

    scale = _scale_from_args(args)
    payload = None
    if args.experiment == "fig3":
        from repro.experiments import fig3

        cells = fig3.run(scale=scale)
        for cell in cells:
            print(cell.row())
        if args.svg:
            from repro.viz import fig3_svg

            for path in fig3_svg(args.svg, cells):
                print(f"SVG written to {path}")
        payload = [
            {
                "panel": c.panel,
                "design": c.design,
                "workload": c.workload,
                "candidates": c.candidates,
                **c.distribution.summary(),
            }
            for c in cells
        ]
    elif args.experiment == "fig4":
        from repro.experiments import fig4

        result = fig4.run(scale=scale)
        for s in sorted(
            result.series, key=lambda s: (s.metric, s.policy, s.design)
        ):
            print(s.row())
        if args.svg:
            from repro.viz import fig4_svg

            for policy in {s.policy for s in result.series}:
                for path in fig4_svg(args.svg, result, policy=policy):
                    print(f"SVG written to {path}")
        payload = [
            {
                "metric": s.metric,
                "policy": s.policy,
                "design": s.design,
                "points": s.points,
                "geomean": s.geomean(),
            }
            for s in result.series
        ]
    elif args.experiment == "fig5":
        from repro.experiments import fig5

        cells = fig5.run(scale=scale)
        for cell in cells:
            print(cell.row())
        if args.svg:
            from repro.viz import fig5_svg

            for policy in {c.policy for c in cells}:
                for path in fig5_svg(args.svg, cells, policy=policy):
                    print(f"SVG written to {path}")
        payload = [vars(c) for c in cells]
    elif args.experiment == "bandwidth":
        from repro.experiments import bandwidth

        points = bandwidth.run(scale=scale)
        for p in sorted(points, key=lambda p: p.misses_per_cycle_per_bank):
            print(p.row())
        payload = [vars(p) for p in points]
    if args.json and payload is not None:
        import json

        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=1)
        print(f"JSON written to {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
