#!/usr/bin/env python3
"""Compare two ZBench result files metric by metric.

    python benchmarks/zbench/compare.py A.json B.json

``A`` is the base (parent commit, or the first of two sets of runs of the
same commit), ``B`` the candidate. Both are files written by ``run.py``
without ``--workload``. One row per (metric, workload): every end-to-end
metric on the workloads it is defined on, judged by its direction and
bound, and every exact per-layer count, which must be identical.

Verdicts: ``better`` / ``same`` / ``worse`` by the metric's bound;
``unresolved`` when the run-to-run spread of either side (the distance
between its quartiles over its median) is wider than the bound, unless
the two inter-quartile ranges do not even overlap. Exits 1 when any row
is ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from zbench import metrics  # noqa: E402  (needs the path set up above)


def verdict(metric: metrics.Metric, a: dict, b: dict) -> tuple[str, str]:
    """(verdict, change as text) of candidate entry ``b`` against base ``a``."""
    va, vb = a["value"], b["value"]
    sign = 1.0 if metric.better == "higher" else -1.0
    if metric.exact or not metric.bound:
        gain = sign * (vb - va)
        return ("same" if vb == va else "better" if gain > 0 else "worse"), f"{vb - va:+.6g}"
    if metric.abs_bound is not None:  # judged in the metric's own unit
        bound, scale, text = metric.abs_bound, 1.0, f"{vb - va:+.4f} abs"
    else:  # judged as a share of the base
        bound, scale, text = metric.bound, va, f"{(vb - va) / va:+.2%}"
    gain = sign * (vb - va) / scale
    spread = max(e.get("q3", e["value"]) - e.get("q1", e["value"]) for e in (a, b)) / scale
    if spread > bound:
        apart = a.get("q3", va) < b.get("q1", vb) or b.get("q3", vb) < a.get("q1", va)
        if not apart:
            return "unresolved", f"{text} (spread {spread:.3g} > bound {bound})"
    return ("worse" if gain < -bound else "better" if gain > bound else "same"), text


def rows(base: dict, cand: dict):
    """Yield (metric name, workload, verdict, text) for every judged pair."""
    for w in metrics.WORKLOADS:
        ma = base["workloads"].get(w.name, {}).get("metrics", {})
        mb = cand["workloads"].get(w.name, {}).get("metrics", {})
        for m in metrics.E2E + [x for x in metrics.LADDER if x.exact]:
            if w.name not in m.on or m.name not in ma:
                continue
            if m.name not in mb:
                yield m.name, w.name, "worse", "missing from the candidate"
            else:
                yield (m.name, w.name, *verdict(m, ma[m.name], mb[m.name]))


def main(argv: list[str] | None = None) -> int:
    """Entry point."""
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    base, cand = (json.loads(Path(p).read_text()) for p in argv)
    counts: dict[str, int] = {}
    for name, workload, v, text in rows(base, cand):
        counts[v] = counts.get(v, 0) + 1
        print(f"{v:10s} {name:32s} {workload:16s} {text}")
    print("  ".join(f"{k}: {n}" for k, n in sorted(counts.items())))
    return 1 if counts.get("worse") else 0


if __name__ == "__main__":
    sys.exit(main())
