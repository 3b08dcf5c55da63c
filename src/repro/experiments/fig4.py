"""Fig. 4: L2 MPKI and IPC improvements over the hashed SA-4 baseline.

For every workload and both replacement policies (OPT in trace-driven
mode, then LRU), each design's improvement over the baseline is
computed; per design, workloads are sorted by improvement so every
series is monotonically increasing — exactly how the paper plots them.

Designs: SA-16, SA-32, Z4/4 (skew), Z4/16, Z4/52, all serial-lookup,
baseline SA-4 with H3 hashing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.experiments.runner import (
    DESIGNS_FIG4,
    ExperimentScale,
    collect_design_sweeps,
)
from repro.obs import ObsContext
from repro.util.statistics import geometric_mean


@dataclass
class Fig4Series:
    """One line in one panel: a design's sorted improvements."""

    design: str
    policy: str
    metric: str  # "mpki" | "ipc"
    #: (workload, improvement) sorted ascending by improvement
    points: list

    def values(self) -> list[float]:
        """The sorted improvement values."""
        return [v for _w, v in self.points]

    def geomean(self) -> float:
        """Geometric-mean improvement across workloads."""
        return geometric_mean(self.values())

    def row(self) -> str:
        """One formatted summary line for this series."""
        vals = self.values()
        return (
            f"{self.metric:4s} {self.policy:3s} {self.design:10s} "
            f"min={vals[0]:.3f} med={vals[len(vals) // 2]:.3f} "
            f"max={vals[-1]:.3f} geomean={self.geomean():.3f} "
            f"worse-than-base={sum(1 for v in vals if v < 0.999)}/{len(vals)}"
        )


@dataclass
class Fig4Result:
    series: list
    #: (workload, policy) -> {design: (mpki, ipc)}
    raw: dict

    def get(self, metric: str, policy: str, design: str) -> Fig4Series:
        """Look up one series by metric, policy and design label."""
        for s in self.series:
            if (s.metric, s.policy, s.design) == (metric, policy, design):
                return s
        raise KeyError((metric, policy, design))


def run(
    scale: ExperimentScale = ExperimentScale(),
    policies: tuple = ("opt", "lru"),
    jobs: int = 1,
    obs: Optional[ObsContext] = None,
) -> Fig4Result:
    """Run the Fig. 4 sweep. The baseline is DESIGNS_FIG4[0].

    ``jobs > 1`` fans the (workload, design, policy) replays across
    worker processes; results are bit-identical to a serial run. The
    optional ``obs`` context threads metrics, phase timings and ZTrace
    spans through the sweep (spans cross the process boundary when the
    context's tracker is enabled).
    """
    base_label = DESIGNS_FIG4[0].label()
    raw: dict = {}
    per_design: dict = {}
    sweeps = collect_design_sweeps(
        scale.workload_names(), DESIGNS_FIG4,
        policies=policies, scale=scale, jobs=jobs, obs=obs,
    )
    for workload, sweep in sweeps.items():
        for policy in policies:
            base = sweep.results[(base_label, policy)]
            raw[(workload, policy)] = {}
            for design in DESIGNS_FIG4:
                res = sweep.results[(design.label(), policy)]
                raw[(workload, policy)][design.label()] = (
                    res.l2_mpki,
                    res.aggregate_ipc,
                )
                if design.label() == base_label:
                    continue
                mpki_imp = (
                    base.l2_mpki / res.l2_mpki if res.l2_mpki > 0 else 1.0
                )
                ipc_imp = (
                    res.aggregate_ipc / base.aggregate_ipc
                    if base.aggregate_ipc > 0
                    else 1.0
                )
                per_design.setdefault(
                    ("mpki", policy, design.label()), []
                ).append((workload, mpki_imp))
                per_design.setdefault(("ipc", policy, design.label()), []).append(
                    (workload, ipc_imp)
                )
    series = [
        Fig4Series(
            design=design,
            policy=policy,
            metric=metric,
            points=sorted(points, key=lambda p: p[1]),
        )
        for (metric, policy, design), points in per_design.items()
    ]
    return Fig4Result(series=series, raw=raw)


def render(result: Fig4Result) -> list[str]:
    """The series summaries, then each workload's LRU improvements."""
    base, *others = (d.label() for d in DESIGNS_FIG4)
    out = [
        s.row()
        for s in sorted(
            result.series, key=lambda s: (s.metric, s.policy, s.design)
        )
    ]
    out += ["", f"Per-workload detail (LRU, improvements vs {base}):"]
    for (workload, policy), designs in sorted(result.raw.items()):
        if policy != "lru":
            continue
        b_mpki, b_ipc = designs[base]
        cells = []
        for design in others:
            mpki, ipc = designs[design]
            cells.append(
                f"{design}: mpki x{(b_mpki / mpki if mpki else 1):.3f} "
                f"ipc x{(ipc / b_ipc if b_ipc else 1):.3f}"
            )
        out.append(
            f"  {workload:16s} baseMPKI={b_mpki:7.2f} | " + " | ".join(cells)
        )
    return out


def payload(result: Fig4Result) -> list[dict]:
    """Every series with its sorted points and geomean."""
    return [
        {
            "metric": s.metric,
            "policy": s.policy,
            "design": s.design,
            "points": s.points,
            "geomean": s.geomean(),
        }
        for s in result.series
    ]


def svg(out_dir, result: Fig4Result) -> list:
    """Render MPKI and IPC panels per policy; returns the paths."""
    from repro.viz import fig4_svg

    return [
        path
        for policy in sorted({s.policy for s in result.series})
        for path in fig4_svg(out_dir, result, policy=policy)
    ]
