"""Synthetic workload generation.

The paper drives its evaluation with 6 PARSEC + 10 SPECOMP multithreaded
applications and 26 SPECCPU2006 programs (run 32-copy multiprogrammed),
plus 30 random CPU2006 mixes — 72 workloads total. Running those suites
needs a Pin-instrumented x86 testbed; this package substitutes synthetic
address-stream proxies whose *statistics* (footprint relative to the
cache, stride/random/pointer-chase composition, memory intensity, write
fraction, sharing) emulate each application's qualitative behaviour.
DESIGN.md records the substitution rationale.

- :mod:`repro.workloads.patterns` — reusable access-pattern primitives.
- :mod:`repro.workloads.spec` — :class:`WorkloadSpec` and per-core
  stream synthesis.
- :mod:`repro.workloads.suites` — the 72-workload roster.
"""

from repro.workloads.analysis import (
    ReuseProfile,
    reuse_profile,
    stack_distances,
    working_set_curve,
)
from repro.workloads.patterns import (
    mixed,
    pointer_chase,
    sequential_scan,
    strided,
    uniform_random,
    working_set_phases,
    zipf,
)
from repro.workloads.spec import CoreAccess, WorkloadSpec
from repro.workloads.traceio import load_trace, save_trace
from repro.workloads.suites import (
    MIX_NAMES,
    PARSEC,
    SPEC2006,
    SPECOMP,
    WORKLOADS,
    get_workload,
    roster,
)

__all__ = [
    "sequential_scan",
    "strided",
    "uniform_random",
    "zipf",
    "working_set_phases",
    "pointer_chase",
    "mixed",
    "CoreAccess",
    "WorkloadSpec",
    "WORKLOADS",
    "PARSEC",
    "SPECOMP",
    "SPEC2006",
    "MIX_NAMES",
    "get_workload",
    "roster",
    "ReuseProfile",
    "reuse_profile",
    "stack_distances",
    "working_set_curve",
    "save_trace",
    "load_trace",
]
