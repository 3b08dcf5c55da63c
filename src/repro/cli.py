"""Command-line interface: ``zcache-repro <experiment> [options]``.

Examples::

    zcache-repro table2
    zcache-repro fig3 --instructions 4000
    zcache-repro fig4 --workloads canneal,cactusADM --instructions 5000
    zcache-repro roster
    zcache-repro lint src/repro
    zcache-repro check --sanitize
    zcache-repro stats fig2 --format json
    zcache-repro timeline sweep --jobs 2 --out trace.json --critical-path
    zcache-repro sweep --jobs 4 --workloads canneal,gcc --checkpoint sweep.ck
    zcache-repro serve --shards 8 --port 9401
    zcache-repro loadgen --workload canneal --workers 4 --sanitize

``lint`` and ``check`` are the correctness-tooling subcommands (the
ZSan static analyzer and the runtime invariant sanitizer; see
``docs/lint_rules.md``); ``stats`` and ``timeline`` are the ZScope
observability subcommands (metrics snapshots and span timelines; see
``docs/observability.md``); everything else regenerates a paper
artifact.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import sys
from dataclasses import replace

#: Subcommands that own their argument parsing (they take paths and
#: flags the experiment parser must not see). One table both dispatches
#: them and renders the epilog: ``name -> ("module:function", help)``.
SUBCOMMANDS = {
    "lint": ("repro.analysis.cli:run_lint",
             "ZSan static analysis (per-file AST rules)"),
    "check": ("repro.analysis.cli:run_check",
              "--sanitize runtime invariants, --model checker, --lockset races"),
    "stats": ("repro.obs.cli:run_stats",
              "ZScope metrics snapshot of an experiment"),
    "timeline": ("repro.obs.cli:run_timeline",
                 "ZTrace span timeline: Perfetto export + critical path"),
    "sweep": ("repro.experiments.parallel:run_sweep_cli",
              "parallel design sweep (--jobs N) with checkpoint/resume"),
    "serve": ("repro.serve.cli:run_serve_cli",
              "boot the ZServe concurrent key-value cache over TCP"),
    "loadgen": ("repro.serve.cli:run_loadgen_cli",
                "replay a workload proxy against ZServe: req/s, latency"),
}

#: flag -> the ``Artifact.inputs`` / ``Artifact.hooks`` entry an artifact
#: must declare to accept it
_FLAGS = {
    "instructions": "scale",
    "workloads": "scale",
    "seed": "scale",
    "engine": "engine",
    "json": "payload",
    "svg": "svg",
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in SUBCOMMANDS:
        module, _, function = SUBCOMMANDS[argv[0]][0].partition(":")
        return getattr(importlib.import_module(module), function)(argv[1:])
    # Only the artifact path loads the experiment stack: a subcommand
    # such as ``serve`` boots without it.
    from repro.experiments import ARTIFACTS

    parser = argparse.ArgumentParser(
        prog="zcache-repro",
        description="Reproduce the tables and figures of the zcache paper "
        "(Sanchez & Kozyrakis, MICRO 2010). With no flags an artifact "
        "prints exactly results/<name>.txt.",
        epilog="additional subcommands (each has its own --help):\n"
        + "\n".join(
            f"  {name:<9} {text}" for name, (_, text) in SUBCOMMANDS.items()
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "experiment", choices=[*ARTIFACTS, "roster"],
        help="which artifact to regenerate",
    )
    parser.add_argument(
        "--instructions", type=int, default=None,
        help="instructions per core per workload (default: the "
        "artifact's recorded scale)",
    )
    parser.add_argument(
        "--workloads", type=str, default=None,
        help="comma-separated workload subset (default: the artifact's "
        "recorded roster)",
    )
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--engine", choices=("reference", "turbo"), default=None,
        help="cache access engine: 'turbo' runs the ZTurbo vectorized "
        "kernels (bit-identical results; fig2 only)",
    )
    parser.add_argument(
        "--json", type=str, default=None, metavar="PATH",
        help="also write structured results as JSON "
        "(fig3/fig4/fig5/bandwidth)",
    )
    parser.add_argument(
        "--svg", type=str, default=None, metavar="DIR",
        help="also render figures as SVG into DIR (fig2/fig3/fig4/fig5)",
    )
    args = parser.parse_args(argv)

    artifact = ARTIFACTS.get(args.experiment)
    declared = artifact.inputs + artifact.hooks if artifact else ()
    for flag, needs in _FLAGS.items():
        if getattr(args, flag) is not None and needs not in declared:
            takes = [f"--{f}" for f, n in _FLAGS.items() if n in declared]
            parser.error(
                f"{args.experiment} does not take --{flag}; it takes "
                + (", ".join(takes) if takes else "no flags")
            )
    if artifact is None:  # roster
        from repro.workloads import WORKLOADS

        for spec in WORKLOADS.values():
            print(spec.describe())
        return 0

    module = artifact.load()
    inputs = {}
    if "scale" in artifact.inputs:
        given = {
            "instructions_per_core": args.instructions,
            "workloads": tuple(args.workloads.split(",")) if args.workloads else None,
            "seed": args.seed,
        }
        recorded = inspect.signature(module.run).parameters["scale"].default
        inputs["scale"] = replace(
            recorded, **{k: v for k, v in given.items() if v is not None}
        )
    if args.engine is not None:
        inputs["engine"] = args.engine
    result = module.run(**inputs)
    print("\n".join(module.render(result)))
    if args.svg:
        for path in module.svg(args.svg, result):
            print(f"SVG written to {path}")
    if args.json:
        import json

        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(module.payload(result), f, indent=1)
        print(f"JSON written to {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
