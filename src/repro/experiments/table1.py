"""Table I: main characteristics of the simulated CMP."""

from __future__ import annotations

from repro.sim import CMPConfig


def rows(cfg: CMPConfig | None = None) -> list[str]:
    """Table I lines for a configuration (paper scale by default)."""
    cfg = cfg or CMPConfig.paper_scale()
    l1_kb = cfg.l1_blocks * cfg.line_bytes // 1024
    l2_mb = cfg.l2_blocks * cfg.line_bytes / (1 << 20)
    bw_gbs = cfg.mem_bytes_per_cycle * 2  # 2 GHz
    return [
        "Table I: simulated CMP configuration",
        f"Cores      {cfg.num_cores} cores, x86-64 ISA, in-order, IPC=1 except on "
        "memory accesses, 2 GHz",
        f"L1 caches  {l1_kb} KB, {cfg.l1_ways}-way set associative, split D/I, "
        "1-cycle latency",
        f"L2 cache   {l2_mb:.2f} MB NUCA, {cfg.l2_banks} banks, shared, inclusive, "
        f"MESI directory coherence, {cfg.l1_to_l2_latency}-cycle average "
        "L1-to-L2-bank latency, 6-11-cycle L2 bank latency (design-dependent)",
        f"MCU        {cfg.num_mcs} memory controllers, {cfg.mem_latency} cycles "
        f"zero-load latency, {bw_gbs:.0f} GB/s peak memory BW",
    ]


def run() -> tuple[CMPConfig, CMPConfig]:
    """The two configurations Table I reports: paper scale, scaled default."""
    return CMPConfig.paper_scale(), CMPConfig()


def render(result: tuple[CMPConfig, CMPConfig]) -> list[str]:
    """Table I at paper scale, then the scaled default, indented."""
    paper, scaled = result
    return [
        *rows(paper),
        "",
        "Scaled configuration used by default experiments:",
        *("  " + line for line in rows(scaled)),
    ]
