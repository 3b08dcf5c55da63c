"""Table II: timing, area and power of set-associative caches vs zcaches.

Regenerates the table from the analytical array model and checks the
paper's headline ratios. The ``mean_relocations`` input can come from a
simulation (``repro.experiments.merit`` reports measured values); the
default of 1.0 reflects the measured Z4/52 average under LRU.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.energy import CacheCostModel, table2_rows


@dataclass
class Table2Checks:
    serial_hit_ratio_32_vs_4: float
    parallel_hit_ratio_32_vs_4: float
    serial_latency_ratio_32_vs_4: float
    parallel_latency_ratio_32_vs_4: float
    area_ratio_32_vs_4: float
    z52_vs_sa32_miss_energy: float
    z52_keeps_4way_hit_energy: bool
    z52_keeps_4way_latency: bool


def checks(capacity_bytes: int = 1 << 20, mean_relocations: float = 1.0) -> Table2Checks:
    """Compute the headline Table II ratios for assertion/report."""
    s4 = CacheCostModel(capacity_bytes, 4)
    s32 = CacheCostModel(capacity_bytes, 32)
    p4 = CacheCostModel(capacity_bytes, 4, parallel_lookup=True)
    p32 = CacheCostModel(capacity_bytes, 32, parallel_lookup=True)
    z52 = CacheCostModel(
        capacity_bytes, 4, levels=3, mean_relocations=mean_relocations
    )
    return Table2Checks(
        serial_hit_ratio_32_vs_4=s32.hit_energy() / s4.hit_energy(),
        parallel_hit_ratio_32_vs_4=p32.hit_energy() / p4.hit_energy(),
        serial_latency_ratio_32_vs_4=(
            s32.hit_latency_cycles() / s4.hit_latency_cycles()
        ),
        parallel_latency_ratio_32_vs_4=(
            p32.hit_latency_cycles() / p4.hit_latency_cycles()
        ),
        area_ratio_32_vs_4=s32.area_mm2() / s4.area_mm2(),
        z52_vs_sa32_miss_energy=z52.miss_energy() / s32.miss_energy(),
        z52_keeps_4way_hit_energy=abs(z52.hit_energy() - s4.hit_energy()) < 1e-9,
        z52_keeps_4way_latency=(
            z52.hit_latency_cycles() == s4.hit_latency_cycles()
        ),
    )


@dataclass
class Table2Result:
    capacity_bytes: int
    rows: list
    checks: Table2Checks


def run(capacity_bytes: int = 1 << 20, mean_relocations: float = 1.0) -> Table2Result:
    """Table II's rows and its headline-ratio checks."""
    return Table2Result(
        capacity_bytes,
        table2_rows(capacity_bytes, mean_relocations),
        checks(capacity_bytes, mean_relocations),
    )


def render(result: Table2Result) -> list[str]:
    """Table II, then the headline ratios beside the paper's values."""
    c = result.checks
    return [
        f"Table II: cache designs at {result.capacity_bytes / (1 << 20):.0f} MB per bank",
        *("  " + row.format() for row in result.rows),
        "Headline ratios (paper values in parentheses):",
        f"  serial hit energy 32w/4w   = {c.serial_hit_ratio_32_vs_4:.2f}x (2.0x)",
        f"  parallel hit energy 32w/4w = {c.parallel_hit_ratio_32_vs_4:.2f}x (3.3x)",
        f"  serial latency 32w/4w      = {c.serial_latency_ratio_32_vs_4:.2f}x (1.23x)",
        f"  parallel latency 32w/4w    = {c.parallel_latency_ratio_32_vs_4:.2f}x (1.32x)",
        f"  area 32w/4w                = {c.area_ratio_32_vs_4:.2f}x (1.22x)",
        f"  Z4/52 vs SA-32 miss energy = {c.z52_vs_sa32_miss_energy:.2f}x (~1.3x)",
    ]
