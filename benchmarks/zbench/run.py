#!/usr/bin/env python3
"""ZBench: six named workloads, end-to-end + per-layer metrics, one command.

    python benchmarks/zbench/run.py                       # all six, untraced
    python benchmarks/zbench/run.py --trace               # + the traced pass
    python benchmarks/zbench/run.py --workload serve_hot --seed 2 --trace 1

Without ``--workload`` every workload runs in its own subprocess (so
``peak_rss_mb`` is per workload) and the merged result is written to
``benchmarks/zbench/out/`` (or ``--out``). With ``--workload`` the run
happens in this process and the last line of standard output is the one
JSON object the builder contract asks for. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
GOLDEN = HERE / "golden_seed1.json"
OUT = HERE / "out"

if not (REPO / "src" / "repro").is_dir():
    sys.exit(f"zbench: the program under test is missing ({REPO / 'src' / 'repro'})")
sys.path[:0] = [str(HERE), str(REPO / "src")]

from zbench import metrics  # noqa: E402  (needs the path set up above)


def parse(argv: list[str] | None) -> argparse.Namespace:
    """The command line."""
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[w.name for w in metrics.WORKLOADS])
    p.add_argument("--seed", type=int, default=1,
                   help="every input derives from it; 1 also checks the golden file")
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per run (default: BENCHMARK.json's run_seconds)")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                   help="1: also run the traced pass and report the per-layer metrics")
    p.add_argument("--quick", action="store_true", help="self-test sizes")
    p.add_argument("--out", type=Path, default=None, help="write the full result here")
    p.add_argument("--write-golden", action="store_true",
                   help="all workloads: record this run's exact values as the golden file")
    args = p.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.3 if args.quick else float(
            json.loads((REPO / "BENCHMARK.json").read_text())["run_seconds"]
        )
    return args


def show(result: dict, names: list[str]) -> None:
    """Print every metric of ``names`` the run produced, by name, with its unit."""
    for name in names:
        entry = result["metrics"].get(name)
        if entry is None:
            continue
        spread = (f"  [q1 {entry['q1']:.6g}  q3 {entry['q3']:.6g}  n={entry['n']}]"
                  if "n" in entry else "")
        print(f"  {name:34s} {entry['value']:>14.6g} {entry['unit']:6s}{spread}")


def run_one(args: argparse.Namespace) -> int:
    """One workload in this process; last stdout line is the contract's JSON."""
    from zbench.calib import Clock

    clock = Clock()
    with clock.segment():
        from zbench import harness  # the imports of repro are part of set-up
    golden = None
    if args.seed == 1 and not args.quick and not args.write_golden and GOLDEN.exists():
        golden = json.loads(GOLDEN.read_text())[args.workload][f"trace{args.trace}"]
    result = harness.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), quick=args.quick,
        import_s=(clock.cal_s, clock.raw_s), golden=golden,
        trace_path=str(OUT / f"trace_{args.workload}.json") if args.trace else None,
    )
    contract = metrics.CONTRACT_LAYER if args.trace else metrics.CONTRACT_E2E
    print(f"{args.workload}  seed={args.seed}  sizes={result['sizes']}  "
          f"repeats={result['repeats']}  attempted={result['attempted']}  "
          f"failed={result['failed']}")
    show(result, [m.name for m in metrics.E2E])
    if args.trace:
        show(result, [m.name for m in metrics.LADDER])
        print("  share of the traced pass's wall, by span (self time):")
        for name, share in result["trace_shares"].items():
            print(f"    {name:32s} {share:8.4f}")
    for error in result["errors"]:
        print(f"  FAILED: {error}")
    result["exact"] = harness.exact_values(result)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(result, indent=1))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m.name: {"value": result["metrics"][m.name]["value"], "unit": m.unit}
            for m in contract if m.name in result["metrics"]
        },
    }))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own subprocess; merge, print, write one result."""
    OUT.mkdir(exist_ok=True)
    merged: dict = {"meta": _meta(args), "workloads": {}}
    golden: dict = {}
    for w in metrics.WORKLOADS:
        runs = []
        for trace in (0, 1) if args.trace else (0,):
            part = OUT / f"part_{w.name}_t{trace}.json"
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w.name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--out", str(part)]
            cmd += ["--quick"] if args.quick else []
            cmd += ["--write-golden"] if args.write_golden else []
            subprocess.run(cmd, check=True)
            runs.append(json.loads(part.read_text()))
            part.unlink()
        golden[w.name] = {f"trace{t}": r["exact"] for t, r in enumerate(runs)}
        merged["workloads"][w.name] = {
            "sizes": runs[0]["sizes"],
            "repeats": runs[0]["repeats"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "errors": [e for r in runs for e in r["errors"]],
            # end-to-end numbers come from the untraced run, the rest from the traced one
            "metrics": {**runs[-1]["metrics"], **runs[0]["metrics"]},
            "trace_shares": runs[-1]["trace_shares"],
        }
    out = args.out or OUT / f"results_seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(merged, indent=1) + "\n")
    print(f"\nresult written to {out}")
    if args.write_golden:
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        print(f"golden values written to {GOLDEN}")
    return 1 if any(e["failed"] for e in merged["workloads"].values()) else 0


def _meta(args: argparse.Namespace) -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", str(REPO), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # the driver's checkout is not a git repository
    return {
        "commit": commit, "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "platform": platform.platform(),
        "seed": args.seed, "seconds": args.seconds, "quick": args.quick,
        "traced": bool(args.trace),
    }


def main(argv: list[str] | None = None) -> int:
    """Entry point."""
    args = parse(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
