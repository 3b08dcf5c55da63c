"""Section VI-D: L2 array bandwidth and self-throttling.

For each workload, the Z4/52 replay reports:

- average demand load per bank (core accesses / cycle / bank);
- total tag-array load including the replacement walks;
- misses per cycle per bank.

The paper's observation: as L2 misses increase, demand load *decreases*
(cores stall more) — the system self-throttles, leaving spare tag
bandwidth that the zcache walks consume safely.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from repro.experiments.runner import ExperimentScale, run_design_sweep
from repro.sim import L2DesignConfig


@dataclass
class BandwidthPoint:
    workload: str
    demand_load_per_bank: float  # L2 accesses / cycle / bank
    tag_load_per_bank: float  # incl. walk tag reads
    misses_per_cycle_per_bank: float

    def row(self) -> str:
        """One formatted report line."""
        return (
            f"{self.workload:16s} demand={self.demand_load_per_bank:.4f} "
            f"tag(total)={self.tag_load_per_bank:.4f} "
            f"miss/cyc/bank={self.misses_per_cycle_per_bank:.5f}"
        )


def run(scale: ExperimentScale = ExperimentScale()) -> list[BandwidthPoint]:
    """Measure per-bank L2 load under a Z4/52 for each workload."""
    design = L2DesignConfig(kind="z", ways=4, levels=3)
    points = []
    for workload in scale.workload_names():
        sweep = run_design_sweep(workload, [design], policies=("lru",), scale=scale)
        res = sweep.results[(design.label(), "lru")]
        cycles = res.total_cycles
        banks = len(res.bank_accesses)
        if cycles == 0:
            continue
        points.append(
            BandwidthPoint(
                workload=workload,
                demand_load_per_bank=sum(res.bank_accesses) / banks / cycles,
                tag_load_per_bank=res.tag_load_per_bank_cycle(),
                misses_per_cycle_per_bank=res.l2_misses / banks / cycles,
            )
        )
    return points


def self_throttling_correlation(points: list[BandwidthPoint]) -> float:
    """Correlation between miss intensity and demand load.

    Negative (or near-zero) correlation across miss-intensive workloads
    is the self-throttling effect.
    """
    if len(points) < 3:
        raise ValueError("need at least 3 points")
    return statistics.correlation(
        [p.misses_per_cycle_per_bank for p in points],
        [p.demand_load_per_bank for p in points],
    )


def render(points: list[BandwidthPoint]) -> list[str]:
    """Points by rising miss intensity, the maxima, the correlation."""
    out = [
        "  " + p.row()
        for p in sorted(points, key=lambda p: p.misses_per_cycle_per_bank)
    ]
    out += [
        f"max demand load/bank = {max(p.demand_load_per_bank for p in points):.4f}",
        f"max tag load/bank    = {max(p.tag_load_per_bank for p in points):.4f}",
    ]
    if len(points) >= 3:  # a correlation needs three points
        out.append(
            "self-throttling correlation = "
            f"{self_throttling_correlation(points):.3f}"
        )
    return out


def payload(points: list[BandwidthPoint]) -> list[dict]:
    """Every point as a plain mapping."""
    return [vars(p) for p in points]
