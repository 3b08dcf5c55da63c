"""Figure layouts: experiment outputs -> the paper's charts as SVG."""

from __future__ import annotations

from pathlib import Path

from repro.assoc import uniformity_cdf
from repro.util.statistics import unit_grid
from repro.viz.svg import BarChart, LineChart, Series


def fig2_svg(out_dir, result=None) -> list[Path]:
    """Fig. 2: uniformity CDFs, linear and semilog panels.

    ``result`` is a :class:`repro.experiments.fig2.Fig2Result`; computed
    fresh if omitted.
    """
    from repro.experiments import fig2

    result = result or fig2.run()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for log_y in (False, True):
        chart = LineChart(
            title="Fig.2: associativity CDFs under uniformity"
            + (" (semilog)" if log_y else ""),
            x_label="eviction priority e",
            y_label="P(E <= e)",
            log_y=log_y,
            y_min=1e-8 if log_y else 0.0,
            y_max=1.0,
        )
        floor = 1e-8 if log_y else -1.0
        for n in sorted(result.analytic):
            for label, ys, dashed in (
                (f"x^{n} analytic", result.analytic[n], False),
                (f"n={n} simulated", result.simulated[n][0], True),
            ):
                kept = [(x, y) for x, y in zip(result.xs, ys) if y > floor]
                chart.add(
                    Series(
                        label,
                        [x for x, _ in kept],
                        [y for _, y in kept],
                        dashed=dashed,
                    )
                )
        path = out_dir / ("fig2_semilog.svg" if log_y else "fig2_linear.svg")
        chart.save(path)
        paths.append(path)
    return paths


def fig3_svg(out_dir, cells) -> list[Path]:
    """Fig. 3: one SVG per panel, CDFs per workload + uniformity line.

    ``cells`` come from :func:`repro.experiments.fig3.run`.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    xs = unit_grid(101)
    panels: dict[str, list] = {}
    for cell in cells:
        panels.setdefault(cell.panel, []).append(cell)
    paths = []
    for panel, panel_cells in panels.items():
        chart = LineChart(
            title=f"Fig.3 {panel}",
            x_label="eviction priority e",
            y_label="CDF",
            y_min=0.0,
            y_max=1.0,
        )
        for cell in panel_cells:
            chart.add(
                Series(
                    f"{cell.design} {cell.workload}",
                    xs,
                    cell.distribution.cdf(xs),
                )
            )
        n_values = {c.candidates for c in panel_cells}
        for n in sorted(n_values):
            cdf = uniformity_cdf(n)
            chart.add(
                Series(
                    f"x^{n} (uniformity)",
                    xs,
                    [cdf(x) for x in xs],
                    dashed=True,
                    color="#000000",
                )
            )
        slug = panel.split(":")[0].strip()
        path = out_dir / f"fig3_{slug}.svg"
        chart.save(path)
        paths.append(path)
    return paths


def fig4_svg(out_dir, result, policy: str = "lru") -> list[Path]:
    """Fig. 4: sorted improvement lines, one SVG per metric.

    ``result`` comes from :func:`repro.experiments.fig4.run`.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for metric, label in (("mpki", "L2 MPKI improvement"),
                          ("ipc", "IPC improvement")):
        chart = LineChart(
            title=f"Fig.4: {label} over SA-4h ({policy.upper()})",
            x_label="workloads (sorted per design)",
            y_label=f"{label} (x)",
        )
        for series in sorted(
            (s for s in result.series
             if s.metric == metric and s.policy == policy),
            key=lambda s: s.design,
        ):
            values = series.values()
            chart.add(Series(series.design, list(range(len(values))), values))
        path = out_dir / f"fig4_{metric}_{policy}.svg"
        chart.save(path)
        paths.append(path)
    return paths


def fig5_svg(out_dir, cells, policy: str = "lru") -> list[Path]:
    """Fig. 5: grouped bars (workloads + geomeans x designs), two panels.

    ``cells`` come from :func:`repro.experiments.fig5.run`.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    selected = [c for c in cells if c.policy == policy]
    groups = list(dict.fromkeys(c.group for c in selected))
    designs = list(dict.fromkeys(c.design for c in selected))
    by_key = {(c.design, c.group): c for c in selected}
    paths = []
    for attr, label in (
        ("ipc_improvement", "IPC improvement"),
        ("bips_per_watt_improvement", "BIPS/W improvement"),
    ):
        chart = BarChart(
            title=f"Fig.5: {label} vs serial SA-4h ({policy.upper()})",
            groups=groups,
            y_label=f"{label} (x)",
            reference=1.0,
        )
        for design in designs:
            chart.add(
                design,
                [getattr(by_key[(design, g)], attr) for g in groups],
            )
        path = out_dir / f"fig5_{attr.split('_')[0]}_{policy}.svg"
        chart.save(path)
        paths.append(path)
    return paths
