"""``zcache-repro faults``: the resilience campaign from the shell.

Three modes, composable into one invocation:

``--campaign``
    Sweep fault kind x trigger time x location across the paper's
    designs (parallel, checkpointed, bit-identical at any ``--jobs``),
    print the per-design detection-rate / MPKI-drift table, and
    optionally persist the full payload with ``--json``.
``--minimize``
    Run faultmin on the campaign's interesting outcomes (one
    representative case per (design, kind) cell whose verdict was not
    benign), emitting replayable minimal counterexamples.
``--replay PATH``
    Re-run a previously emitted counterexample file and verify its
    recorded verdict still reproduces — exit 1 if it does not.
"""

from __future__ import annotations

import argparse
import json

from repro.obs import Heartbeat, ObsContext

__all__ = ["run_faults_cli"]


def run_faults_cli(argv: list) -> int:
    """Entry point for the ``faults`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="zcache-repro faults",
        description="Fault-injection resilience campaign: deterministic "
        "corruption of cache machinery under the ZSpec sanitizer, with "
        "minimal-fault search over the interesting outcomes.",
    )
    parser.add_argument(
        "--campaign", action="store_true",
        help="run the full fault sweep (designs x kinds x triggers)",
    )
    parser.add_argument(
        "--minimize", action="store_true",
        help="faultmin the interesting campaign outcomes into "
        "replayable minimal counterexamples",
    )
    parser.add_argument(
        "--replay", type=str, default=None, metavar="PATH",
        help="re-run a counterexample JSON file and verify its verdict",
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default: available CPUs; 1 = serial)",
    )
    parser.add_argument(
        "--checkpoint", type=str, default=None, metavar="PATH",
        help="JSON checkpoint: resume an interrupted campaign from here",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--accesses", type=int, default=2000,
        help="replay length per case (default 2000)",
    )
    parser.add_argument(
        "--lines-per-way", type=int, default=64,
        help="array lines per way (default 64)",
    )
    parser.add_argument(
        "--triggers", type=str, default="0.25,0.5,0.85",
        help="comma-separated trigger fractions of the replay length",
    )
    parser.add_argument(
        "--variants", type=int, default=2,
        help="location/bit variants per (design, kind, trigger)",
    )
    parser.add_argument(
        "--budget", type=int, default=200,
        help="faultmin probe budget per case (default 200)",
    )
    parser.add_argument(
        "--json", type=str, default=None, metavar="PATH",
        help="write the campaign payload (and counterexamples) as JSON",
    )
    parser.add_argument(
        "--progress-log", type=str, default=None, metavar="PATH",
        help="append heartbeat progress lines to this file",
    )
    args = parser.parse_args(argv)

    if args.replay:
        return _replay(args.replay)
    if not args.campaign and not args.minimize:
        parser.error("choose at least one of --campaign/--minimize/--replay")

    from repro.faults.campaign import (
        CampaignConfig,
        build_cases,
        run_campaign,
    )

    config = CampaignConfig(
        base_seed=args.seed,
        accesses=args.accesses,
        lines_per_way=args.lines_per_way,
        triggers=tuple(
            float(part) for part in args.triggers.split(",") if part
        ),
        variants=args.variants,
    )
    heartbeat = (
        Heartbeat(path=args.progress_log)
        if args.progress_log
        else Heartbeat.from_env()
    )
    obs = ObsContext(heartbeat=heartbeat)
    outcome = run_campaign(
        config, jobs=args.jobs, checkpoint=args.checkpoint, obs=obs
    )
    print(
        f"faults: {len(outcome.outcomes)} cases "
        f"({outcome.restored} restored, {len(outcome.errors)} failed)"
    )
    print(outcome.report.render())
    for key, error in outcome.errors.items():
        print(f"FAILED {key}: {error}")

    payload = {"campaign": outcome.to_dict()} if args.campaign else {}

    if args.minimize:
        payload["counterexamples"] = _minimize(
            outcome, build_cases(config), budget=args.budget
        )

    if args.json and payload:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=1, sort_keys=True)
        print(f"JSON written to {args.json}")
    return 1 if outcome.errors else 0


def _minimize(outcome, cases, *, budget: int) -> list:
    """faultmin one representative interesting case per (design, kind)."""
    from repro.faults.faultmin import minimize_case

    by_key = {case.key: case for case in cases}
    picked: dict[tuple, object] = {}
    for key, result in outcome.outcomes.items():
        if result.classification == "benign" or key not in by_key:
            continue
        picked.setdefault((result.design, result.kind), by_key[key])
    counterexamples = []
    for (design, kind), case in sorted(picked.items()):
        ce = minimize_case(case, budget=budget)
        counterexamples.append(ce.to_dict())
        print(
            f"faultmin: {design} {kind}: {ce.original_events} -> "
            f"{ce.minimized_events} event(s), {ce.probes} probes, "
            f"verdict {ce.classification}"
            + (f" ({ce.detector})" if ce.detector else "")
        )
    return counterexamples


def _replay(path: str) -> int:
    """Re-run one counterexample file (or a ``counterexamples`` list)."""
    from repro.faults.faultmin import replay_counterexample

    with open(path, "r", encoding="utf-8") as f:
        data = json.load(f)
    if isinstance(data, dict) and "counterexamples" in data:
        entries = data["counterexamples"]
    elif isinstance(data, list):
        entries = data
    else:
        entries = [data]
    failures = 0
    for i, entry in enumerate(entries):
        report = replay_counterexample(entry)
        status = "ok" if report["match"] else "MISMATCH"
        print(
            f"replay[{i}]: expected {report['expected']}, "
            f"observed {report['observed']} [{status}]"
            + (f" det={report['detector']}" if report["detector"] else "")
        )
        if not report["match"]:
            failures += 1
    return 1 if failures else 0
