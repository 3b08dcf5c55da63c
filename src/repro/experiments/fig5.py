"""Fig. 5: IPC and energy efficiency, serial vs. parallel lookups.

All results are normalised to the serial-lookup, H3-hashed 4-way
set-associative baseline. For each design (serial and parallel variants
of SA-4, SA-16, SA-32, Z4/4, Z4/16, Z4/52) and both policies, the
experiment reports IPC and BIPS/W improvements for the paper's five
representative applications plus the geometric means over the full
roster and over the 10 workloads with the highest baseline L2 MPKI.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.energy import CacheCostModel, ChipPowerModel
from repro.experiments.runner import (
    ExperimentScale,
    baseline_design,
    collect_design_sweeps,
    representative_workloads,
)
from repro.obs import ObsContext
from repro.sim import CMPConfig, L2DesignConfig
from repro.sim.cmp import CMPResult
from repro.util.statistics import geometric_mean


def fig5_designs() -> list[L2DesignConfig]:
    """The serial and parallel design matrix of Fig. 5."""
    designs = []
    for parallel in (False, True):
        designs.append(baseline_design(parallel=parallel))
        for ways in (16, 32):
            designs.append(
                L2DesignConfig(
                    kind="sa", ways=ways, hash_kind="h3", parallel_lookup=parallel
                )
            )
        designs.append(L2DesignConfig(kind="skew", ways=4, parallel_lookup=parallel))
        for levels in (2, 3):
            designs.append(
                L2DesignConfig(
                    kind="z", ways=4, levels=levels, parallel_lookup=parallel
                )
            )
    return designs


def energy_report(result: CMPResult, design: L2DesignConfig, cfg: CMPConfig):
    """System energy for one simulation, via the McPAT-like model."""
    bank_bytes = max(cfg.bank_blocks * cfg.line_bytes, 1 << 20)
    walk_stats_mean = 1.0
    if result.walk_tag_reads and result.l2_misses:
        walk_stats_mean = result.relocations / max(result.l2_misses, 1)
    cost = CacheCostModel(
        bank_bytes,
        design.ways,
        levels=design.levels if design.kind == "z" else None,
        parallel_lookup=design.parallel_lookup,
        mean_relocations=min(walk_stats_mean, max(design.levels - 1, 0)),
    )
    chip = ChipPowerModel(cost, num_cores=cfg.num_cores, num_banks=cfg.l2_banks)
    return chip.report(
        instructions=result.total_instructions,
        cycles=result.total_cycles,
        l1_accesses=result.l1_accesses,
        l2_hits=result.l2_hits,
        l2_misses=result.l2_misses,
        l2_writebacks=result.l2_writebacks,
        walk_tag_reads=result.walk_tag_reads,
        relocations=result.relocations,
    )


@dataclass
class Fig5Cell:
    design: str
    policy: str
    group: str  # workload name, "geomean-all", or "geomean-top10"
    ipc_improvement: float
    bips_per_watt_improvement: float

    def row(self) -> str:
        """One formatted report line."""
        return (
            f"{self.policy:3s} {self.design:11s} {self.group:16s} "
            f"IPC x{self.ipc_improvement:5.3f}  "
            f"BIPS/W x{self.bips_per_watt_improvement:5.3f}"
        )


def run(
    scale: ExperimentScale = ExperimentScale(),
    policies: tuple = ("lru", "opt"),
    cfg: CMPConfig | None = None,
    jobs: int = 1,
    obs: Optional[ObsContext] = None,
) -> list[Fig5Cell]:
    """Run the Fig. 5 sweep; one cell per design/policy/group.

    ``jobs > 1`` fans the replays across worker processes (bit-identical
    results, see :mod:`repro.experiments.parallel`). The optional
    ``obs`` context threads metrics, phase timings and ZTrace spans
    through the sweep.
    """
    cfg = cfg or CMPConfig()
    designs = fig5_designs()
    base_label = baseline_design(parallel=False).label()
    names = scale.workload_names()
    # per (design,policy) -> workload -> (ipc_imp, eff_imp); plus base MPKIs
    imps: dict = {}
    base_mpki: dict = {}
    sweeps = collect_design_sweeps(
        names, designs, policies=policies, scale=scale, jobs=jobs, obs=obs
    )
    for workload, sweep in sweeps.items():
        for policy in policies:
            base = sweep.results[(base_label, policy)]
            base_energy = energy_report(base, baseline_design(), cfg)
            base_mpki[(workload, policy)] = base.l2_mpki
            for design in designs:
                res = sweep.results[(design.label(), policy)]
                rep = energy_report(res, design, cfg)
                ipc_imp = (
                    res.aggregate_ipc / base.aggregate_ipc
                    if base.aggregate_ipc
                    else 1.0
                )
                eff_imp = (
                    rep.bips_per_watt / base_energy.bips_per_watt
                    if base_energy.bips_per_watt
                    else 1.0
                )
                imps.setdefault((design.label(), policy), {})[workload] = (
                    ipc_imp,
                    eff_imp,
                )
    cells: list[Fig5Cell] = []
    reps = [w for w in representative_workloads() if w in names]
    for policy in policies:
        ranked = sorted(
            names, key=lambda w: base_mpki[(w, policy)], reverse=True
        )
        top10 = ranked[: min(10, len(ranked))]
        for design in designs:
            per_wl = imps[(design.label(), policy)]
            for w in reps:
                cells.append(
                    Fig5Cell(
                        design=design.label(),
                        policy=policy,
                        group=w,
                        ipc_improvement=per_wl[w][0],
                        bips_per_watt_improvement=per_wl[w][1],
                    )
                )
            for group, members in (
                ("geomean-all", names),
                ("geomean-top10", top10),
            ):
                cells.append(
                    Fig5Cell(
                        design=design.label(),
                        policy=policy,
                        group=group,
                        ipc_improvement=geometric_mean(
                            [per_wl[w][0] for w in members]
                        ),
                        bips_per_watt_improvement=geometric_mean(
                            [per_wl[w][1] for w in members]
                        ),
                    )
                )
    return cells


def render(cells: list[Fig5Cell]) -> list[str]:
    """One IPC / BIPS/W improvement line per design, policy and group."""
    return [cell.row() for cell in cells]


def payload(cells: list[Fig5Cell]) -> list[dict]:
    """Every cell as a plain mapping."""
    return [vars(c) for c in cells]


def svg(out_dir, cells: list[Fig5Cell]) -> list:
    """Render IPC and BIPS/W bar charts per policy; returns the paths."""
    from repro.viz import fig5_svg

    return [
        path
        for policy in sorted({c.policy for c in cells})
        for path in fig5_svg(out_dir, cells, policy=policy)
    ]
