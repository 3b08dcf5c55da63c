"""The 72-workload roster (paper Section V).

6 PARSEC + 10 SPECOMP multithreaded applications, 26 SPECCPU2006
programs run 32-copy multiprogrammed, and 30 random CPU2006 mixes.
Each entry is a synthetic proxy: the pattern mix, footprint (relative to
the L2), memory intensity, and sharing are chosen to emulate the
application's qualitative cache behaviour as characterised in the paper
and the benchmark-characterisation literature. Proxies are not the
benchmarks — see DESIGN.md for the substitution argument.

Pattern-footprint conventions (multiples of L2 capacity):
``0.01-0.05`` ~ L1-resident hot set, ``0.2-0.8`` ~ L2-resident,
``2-16`` ~ far exceeds the L2 (miss traffic).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from repro.workloads.spec import WorkloadSpec


def _hot(weight: float, mult: float = 0.02) -> tuple:
    """An L1-resident hot component: gives the stream its L1 hit rate."""
    return (weight, {"kind": "working_set", "footprint_mult": mult,
                     "ws_fraction": 0.5, "locality": 0.95, "phase_length": 5_000})


#: Calibration: the raw tables below emphasise each proxy's *cold*
#: behaviour; real programs spend most accesses in L1-resident state.
#: Cold weights are scaled down by this factor (hot absorbs the rest) so
#: L1 miss rates land in the realistic few-percent-to-~20% range.
COLD_WEIGHT_SCALE = 0.35


def _spec(name, suite, mt, mem, wr, parts, share=0.0, note=""):
    hot_weight, hot_desc = parts[0]
    cold = [(w * COLD_WEIGHT_SCALE, d) for w, d in parts[1:]]
    hot_weight = 1.0 - sum(w for w, _ in cold)
    patterns = tuple([(hot_weight, dict(hot_desc)), *cold])
    return WorkloadSpec(
        name=name, suite=suite, multithreaded=mt, mem_ratio=mem,
        write_frac=wr, patterns=patterns, sharing_frac=share, note=note,
    )


# --------------------------------------------------------------------------
# PARSEC (multithreaded, shared address space)
# --------------------------------------------------------------------------
PARSEC = [
    _spec("blackscholes", "parsec", True, 0.20, 0.15,
          [_hot(0.97, 0.01), (0.03, {"kind": "zipf", "footprint_mult": 0.3, "skew": 1.3})],
          share=0.05, note="tiny working set; insensitive to L2 organisation"),
    _spec("canneal", "parsec", True, 0.35, 0.25,
          [_hot(0.45, 0.02),
           (0.55, {"kind": "pointer_chase", "footprint_mult": 6.0, "jump_every": 64})],
          share=0.30, note="random netlist pointer chasing, miss-intensive"),
    _spec("fluidanimate", "parsec", True, 0.30, 0.30,
          [_hot(0.70, 0.03),
           (0.20, {"kind": "working_set", "footprint_mult": 1.5, "ws_fraction": 0.15,
                   "locality": 0.85}),
           (0.10, {"kind": "strided", "footprint_mult": 2.0, "stride": 16})],
          share=0.15, note="grid neighbours; moderate L2 pressure"),
    _spec("freqmine", "parsec", True, 0.28, 0.20,
          [_hot(0.92, 0.02),
           (0.08, {"kind": "zipf", "footprint_mult": 0.8, "skew": 1.2})],
          share=0.10, note="FP-tree mining; mostly L1/L2 resident"),
    _spec("streamcluster", "parsec", True, 0.40, 0.10,
          [_hot(0.30, 0.01),
           (0.60, {"kind": "sequential", "footprint_mult": 8.0}),
           (0.10, {"kind": "uniform", "footprint_mult": 0.2})],
          share=0.40, note="repeated streaming over the point set"),
    _spec("swaptions", "parsec", True, 0.22, 0.18,
          [_hot(0.96, 0.015), (0.04, {"kind": "working_set", "footprint_mult": 0.4,
                                      "ws_fraction": 0.3, "locality": 0.9})],
          share=0.05, note="small per-thread simulation state"),
]

# --------------------------------------------------------------------------
# SPECOMP (multithreaded)
# --------------------------------------------------------------------------
SPECOMP = [
    _spec("wupwise", "specomp", True, 0.32, 0.25,
          [_hot(0.55, 0.02),
           (0.35, {"kind": "strided", "footprint_mult": 1.2, "stride": 256}),
           (0.10, {"kind": "strided", "footprint_mult": 1.2, "stride": 512})],
          share=0.10, note="power-of-two lattice strides; pathological set conflicts"),
    _spec("swim", "specomp", True, 0.42, 0.30,
          [_hot(0.25, 0.01),
           (0.75, {"kind": "sequential", "footprint_mult": 12.0})],
          share=0.10, note="large streaming stencil; miss-intensive"),
    _spec("mgrid", "specomp", True, 0.38, 0.28,
          [_hot(0.45, 0.02),
           (0.25, {"kind": "strided", "footprint_mult": 1.5, "stride": 64}),
           (0.20, {"kind": "strided", "footprint_mult": 1.5, "stride": 1024}),
           (0.10, {"kind": "sequential", "footprint_mult": 1.5})],
          share=0.10, note="multigrid strides at several scales"),
    _spec("applu", "specomp", True, 0.36, 0.30,
          [_hot(0.55, 0.02),
           (0.35, {"kind": "working_set", "footprint_mult": 1.3, "ws_fraction": 0.3,
                   "locality": 0.8}),
           (0.10, {"kind": "strided", "footprint_mult": 1.3, "stride": 128})],
          share=0.10, note="blocked linear solves"),
    _spec("equake", "specomp", True, 0.33, 0.22,
          [_hot(0.60, 0.02),
           (0.30, {"kind": "pointer_chase", "footprint_mult": 1.5, "jump_every": 256}),
           (0.10, {"kind": "sequential", "footprint_mult": 1.5})],
          share=0.15, note="irregular mesh traversal"),
    _spec("apsi", "specomp", True, 0.34, 0.27,
          [_hot(0.50, 0.02),
           (0.40, {"kind": "strided", "footprint_mult": 1.4, "stride": 2048}),
           (0.10, {"kind": "uniform", "footprint_mult": 1.0})],
          share=0.08, note="large strides; pathological set conflicts"),
    _spec("gafort", "specomp", True, 0.30, 0.35,
          [_hot(0.70, 0.02),
           (0.30, {"kind": "zipf", "footprint_mult": 1.2, "skew": 1.1})],
          share=0.20, note="genetic algorithm population shuffles"),
    _spec("fma3d", "specomp", True, 0.31, 0.28,
          [_hot(0.65, 0.025),
           (0.25, {"kind": "working_set", "footprint_mult": 1.3, "ws_fraction": 0.35,
                   "locality": 0.85}),
           (0.10, {"kind": "pointer_chase", "footprint_mult": 1.3, "jump_every": 128})],
          share=0.12, note="finite-element element/node accesses"),
    _spec("art", "specomp", True, 0.40, 0.20,
          [_hot(0.35, 0.015),
           (0.65, {"kind": "sequential", "footprint_mult": 5.0})],
          share=0.10, note="neural-net weight scans; miss-intensive"),
    _spec("ammp", "specomp", True, 0.30, 0.24,
          [_hot(0.55, 0.03),
           (0.43, {"kind": "working_set", "footprint_mult": 0.5, "ws_fraction": 0.4,
                   "locality": 0.93}),
           (0.02, {"kind": "uniform", "footprint_mult": 2.0})],
          share=0.15, note="frequent L2 hits, infrequent misses; latency-sensitive"),
]

# --------------------------------------------------------------------------
# SPECCPU2006 (single-threaded; run 32-copy multiprogrammed)
# --------------------------------------------------------------------------
SPEC2006 = [
    _spec("perlbench", "spec2006", False, 0.30, 0.30,
          [_hot(0.90, 0.02), (0.10, {"kind": "zipf", "footprint_mult": 0.6, "skew": 1.3})]),
    _spec("bzip2", "spec2006", False, 0.32, 0.28,
          [_hot(0.75, 0.02),
           (0.25, {"kind": "working_set", "footprint_mult": 0.9, "ws_fraction": 0.3,
                   "locality": 0.9})]),
    _spec("gcc", "spec2006", False, 0.33, 0.32,
          [_hot(0.70, 0.02),
           (0.20, {"kind": "zipf", "footprint_mult": 1.5, "skew": 1.15}),
           (0.10, {"kind": "pointer_chase", "footprint_mult": 1.5, "jump_every": 64})]),
    _spec("mcf", "spec2006", False, 0.40, 0.25,
          [_hot(0.30, 0.01),
           (0.70, {"kind": "pointer_chase", "footprint_mult": 12.0, "jump_every": 32})],
          note="huge pointer-chasing footprint; most miss-intensive integer code"),
    _spec("gobmk", "spec2006", False, 0.28, 0.27,
          [_hot(0.88, 0.025), (0.12, {"kind": "zipf", "footprint_mult": 0.5, "skew": 1.2})]),
    _spec("hmmer", "spec2006", False, 0.35, 0.30,
          [_hot(0.95, 0.02), (0.05, {"kind": "sequential", "footprint_mult": 0.5})]),
    _spec("sjeng", "spec2006", False, 0.27, 0.25,
          [_hot(0.85, 0.02), (0.15, {"kind": "uniform", "footprint_mult": 1.2})]),
    _spec("libquantum", "spec2006", False, 0.42, 0.35,
          [_hot(0.15, 0.005), (0.85, {"kind": "sequential", "footprint_mult": 10.0})],
          note="pure streaming over the qubit vector"),
    _spec("h264ref", "spec2006", False, 0.31, 0.28,
          [_hot(0.85, 0.03),
           (0.15, {"kind": "working_set", "footprint_mult": 1.1, "ws_fraction": 0.35,
                   "locality": 0.88})]),
    _spec("omnetpp", "spec2006", False, 0.34, 0.30,
          [_hot(0.45, 0.02),
           (0.55, {"kind": "pointer_chase", "footprint_mult": 2.5, "jump_every": 48})]),
    _spec("astar", "spec2006", False, 0.32, 0.26,
          [_hot(0.60, 0.02),
           (0.40, {"kind": "pointer_chase", "footprint_mult": 1.4, "jump_every": 96})]),
    _spec("xalancbmk", "spec2006", False, 0.33, 0.27,
          [_hot(0.55, 0.02),
           (0.45, {"kind": "zipf", "footprint_mult": 2.0, "skew": 1.05})]),
    _spec("bwaves", "spec2006", False, 0.41, 0.22,
          [_hot(0.20, 0.01), (0.80, {"kind": "sequential", "footprint_mult": 11.0})]),
    _spec("gamess", "spec2006", False, 0.29, 0.24,
          [_hot(0.60, 0.04),
           (0.40, {"kind": "working_set", "footprint_mult": 0.45, "ws_fraction": 0.5,
                   "locality": 0.95})],
          note="frequent L2 hits, few misses; hit-latency-sensitive"),
    _spec("milc", "spec2006", False, 0.40, 0.30,
          [_hot(0.20, 0.01),
           (0.70, {"kind": "sequential", "footprint_mult": 9.0}),
           (0.10, {"kind": "strided", "footprint_mult": 9.0, "stride": 128})]),
    _spec("zeusmp", "spec2006", False, 0.36, 0.28,
          [_hot(0.50, 0.02),
           (0.30, {"kind": "strided", "footprint_mult": 1.6, "stride": 256}),
           (0.20, {"kind": "sequential", "footprint_mult": 1.6})]),
    _spec("gromacs", "spec2006", False, 0.30, 0.26,
          [_hot(0.80, 0.03),
           (0.20, {"kind": "working_set", "footprint_mult": 0.8, "ws_fraction": 0.3,
                   "locality": 0.9})]),
    _spec("cactusADM", "spec2006", False, 0.38, 0.32,
          [_hot(0.35, 0.015),
           (0.40, {"kind": "strided", "footprint_mult": 1.3, "stride": 512}),
           (0.25, {"kind": "working_set", "footprint_mult": 1.3, "ws_fraction": 0.3,
                   "locality": 0.8})],
          note="large stencil strides; strongly associativity-sensitive"),
    _spec("leslie3d", "spec2006", False, 0.37, 0.27,
          [_hot(0.40, 0.02),
           (0.40, {"kind": "strided", "footprint_mult": 1.8, "stride": 192}),
           (0.20, {"kind": "sequential", "footprint_mult": 1.8})]),
    _spec("namd", "spec2006", False, 0.28, 0.22,
          [_hot(0.90, 0.03), (0.10, {"kind": "working_set", "footprint_mult": 0.5,
                                     "ws_fraction": 0.4, "locality": 0.92})]),
    _spec("soplex", "spec2006", False, 0.36, 0.25,
          [_hot(0.40, 0.02),
           (0.40, {"kind": "working_set", "footprint_mult": 1.6, "ws_fraction": 0.3,
                   "locality": 0.82}),
           (0.20, {"kind": "sequential", "footprint_mult": 1.6})]),
    _spec("povray", "spec2006", False, 0.26, 0.20,
          [_hot(0.97, 0.02), (0.03, {"kind": "zipf", "footprint_mult": 0.3, "skew": 1.3})]),
    _spec("calculix", "spec2006", False, 0.30, 0.26,
          [_hot(0.82, 0.025),
           (0.18, {"kind": "working_set", "footprint_mult": 1.0, "ws_fraction": 0.2,
                   "locality": 0.88})]),
    _spec("GemsFDTD", "spec2006", False, 0.39, 0.30,
          [_hot(0.25, 0.01),
           (0.55, {"kind": "sequential", "footprint_mult": 8.0}),
           (0.20, {"kind": "strided", "footprint_mult": 8.0, "stride": 384})]),
    _spec("lbm", "spec2006", False, 0.43, 0.38,
          [_hot(0.10, 0.005), (0.90, {"kind": "sequential", "footprint_mult": 14.0})],
          note="lattice-Boltzmann streaming; highest MPKI"),
    _spec("sphinx3", "spec2006", False, 0.34, 0.18,
          [_hot(0.55, 0.02),
           (0.35, {"kind": "sequential", "footprint_mult": 1.4}),
           (0.10, {"kind": "zipf", "footprint_mult": 1.0, "skew": 1.2})]),
]


@dataclass(frozen=True)
class MixWorkloadSpec:
    """A multiprogrammed mix: each core runs a different SPEC2006 proxy.

    Mirrors the paper's 30 random CPU2006 combinations (32 apps each,
    repetitions allowed). Duck-types ``WorkloadSpec`` for the parts the
    simulator uses.
    """

    name: str
    members: tuple  # 32 WorkloadSpec entries, one per core
    suite: str = "mix"
    multithreaded: bool = False
    sharing_frac: float = 0.0
    note: str = "random multiprogrammed CPU2006 combination"

    @property
    def mem_ratio(self) -> float:
        return sum(m.mem_ratio for m in self.members) / len(self.members)

    @property
    def write_frac(self) -> float:
        return sum(m.write_frac for m in self.members) / len(self.members)

    def core_blocks(
        self, core_id: int, l2_blocks: int, seed: int = 0, num_cores: int = 32
    ) -> Iterator[tuple[list[int], list[int], list[bool]]]:
        """Delegate to the member app assigned to this core."""
        member = self.members[core_id % len(self.members)]
        return member.core_blocks(core_id, l2_blocks, seed=seed, num_cores=num_cores)

    core_stream = WorkloadSpec.core_stream

    def describe(self) -> str:
        """One-line roster report for this mix."""
        names = {}
        for m in self.members:
            names[m.name] = names.get(m.name, 0) + 1
        body = ",".join(f"{n}x{c}" if c > 1 else n for n, c in sorted(names.items()))
        return f"{self.name:16s} [mix     ] {body[:60]}"


def _make_mixes(count: int = 30, cores: int = 32) -> list[MixWorkloadSpec]:
    mixes = []
    for i in range(count):
        rng = random.Random(1000 + i)
        members = tuple(rng.choice(SPEC2006) for _ in range(cores))
        mixes.append(MixWorkloadSpec(name=f"cpu2K6rand{i}", members=members))
    return mixes


MIXES = _make_mixes()
MIX_NAMES = [m.name for m in MIXES]

#: The full 72-workload roster, in paper order.
WORKLOADS = {w.name: w for w in (*PARSEC, *SPECOMP, *SPEC2006, *MIXES)}

assert len(WORKLOADS) == 72, f"expected 72 workloads, got {len(WORKLOADS)}"


def get_workload(name: str):
    """Look up a workload spec by name."""
    try:
        return WORKLOADS[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; see repro.workloads.roster()"
        ) from None


def roster() -> list[str]:
    """All 72 workload names, grouped suite by suite."""
    return list(WORKLOADS)
