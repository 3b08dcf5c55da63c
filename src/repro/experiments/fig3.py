"""Fig. 3: associativity distributions of real cache designs at the L2.

Four panels, each measured over the paper's six representative
applications (wupwise, apsi, mgrid, canneal, fluidanimate,
blackscholes), with the uniformity-assumption curve as reference:

- (a) set-associative, 4 and 16 ways, un-hashed index;
- (b) set-associative with H3 index hashing;
- (c) skew-associative, 4 and 16 ways;
- (d) zcache, 4 ways, 2- and 3-level walks.

The measurement instruments the CMP simulator's L2 banks with
:class:`~repro.assoc.measurement.TrackedPolicy` and pools eviction
priorities across banks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.assoc import AssociativityDistribution, TrackedPolicy, expected_priority
from repro.experiments.runner import ExperimentScale, run_design_sweep
from repro.sim import L2DesignConfig

FIG3_WORKLOADS = (
    "wupwise",
    "apsi",
    "mgrid",
    "canneal",
    "fluidanimate",
    "blackscholes",
)

PANELS: dict[str, tuple[L2DesignConfig, ...]] = {
    "a: set-assoc (no hash)": (
        L2DesignConfig(kind="sa", ways=4, hash_kind="bitsel"),
        L2DesignConfig(kind="sa", ways=16, hash_kind="bitsel"),
    ),
    "b: set-assoc (H3 hash)": (
        L2DesignConfig(kind="sa", ways=4, hash_kind="h3"),
        L2DesignConfig(kind="sa", ways=16, hash_kind="h3"),
    ),
    "c: skew-associative": (
        L2DesignConfig(kind="skew", ways=4),
        L2DesignConfig(kind="skew", ways=16),
    ),
    "d: zcache (4-way)": (
        L2DesignConfig(kind="z", ways=4, levels=2),
        L2DesignConfig(kind="z", ways=4, levels=3),
    ),
}


@dataclass
class Fig3Cell:
    panel: str
    design: str
    workload: str
    candidates: int
    distribution: AssociativityDistribution

    def row(self) -> str:
        """One formatted report line."""
        d = self.distribution
        return (
            f"{self.panel:24s} {self.design:10s} {self.workload:14s} "
            f"n={self.candidates:<3d} mean={d.mean():.4f} "
            f"(uniformity {expected_priority(self.candidates):.4f}) "
            f"effn={d.effective_candidates():6.1f} "
            f"KS={d.ks_to_uniformity(self.candidates):.3f}"
        )


def _design_candidates(design: L2DesignConfig) -> int:
    from repro.core.zcache import replacement_candidates

    if design.kind == "z":
        return replacement_candidates(design.ways, design.levels)
    return design.ways


def run(
    scale: ExperimentScale = ExperimentScale(instructions_per_core=8_000),
    workloads=None,
) -> list[Fig3Cell]:
    """Measure all four panels; returns one cell per (design, workload).

    ``workloads`` defaults to the paper's six Fig. 3 applications unless
    the scale restricts the roster.
    """
    if workloads is None:
        workloads = scale.workloads if scale.workloads else FIG3_WORKLOADS
    cells: list[Fig3Cell] = []
    for workload in workloads:
        for panel, designs in PANELS.items():
            sweep = run_design_sweep(
                workload,
                designs,
                policies=("lru",),
                scale=scale,
                policy_wrapper=TrackedPolicy,
            )
            for design in designs:
                result = sweep.results[(design.label(), "lru")]
                if not result.eviction_priorities:
                    continue
                cells.append(
                    Fig3Cell(
                        panel=panel,
                        design=design.label(),
                        workload=workload,
                        candidates=_design_candidates(design),
                        distribution=AssociativityDistribution(
                            result.eviction_priorities
                        ),
                    )
                )
    return cells


def render(cells: list[Fig3Cell]) -> list[str]:
    """One eviction-priority summary line per (workload, design)."""
    return [cell.row() for cell in cells]


def payload(cells: list[Fig3Cell]) -> list[dict]:
    """Each cell's identity plus its distribution summary."""
    return [
        {
            "panel": c.panel,
            "design": c.design,
            "workload": c.workload,
            "candidates": c.candidates,
            **c.distribution.summary(),
        }
        for c in cells
    ]


def svg(out_dir, cells: list[Fig3Cell]) -> list:
    """Render one CDF panel per design family; returns the paths."""
    from repro.viz import fig3_svg

    return fig3_svg(out_dir, cells)
