"""ZFault: deterministic fault injection and detection.

The resilience counterpart to the correctness stack: where ZSpec
*defines* the invariants and ZSan/ZCheck *verify* them on healthy
runs, ZFault deliberately corrupts the machinery — tag bits, walk
candidates, relocations, policy stamps, serve-layer eviction records —
and measures which corruptions the detectors actually catch, which
crash, and which silently change victims or miss rates. The verdict
of every (design, fault kind) row is pinned by
``tests/faults/test_table.py``.

- :mod:`repro.faults.inject` — fault events and the seeded injectors,
  a proxy stacked under the sanitizer around the array and the
  controller's eviction choke point (``faults=None`` stays
  bit-identical);
- :mod:`repro.faults.harness` — faulted-vs-golden replay and the
  five-way outcome classifier.
"""

from repro.faults.harness import (
    DESIGNS,
    SERVE_DESIGNS,
    FaultCase,
    FaultOutcome,
    ReplayResult,
    classify,
    run_case,
    run_replay,
    run_serve_replay,
)
from repro.faults.inject import (
    ARRAY_FAULT_KINDS,
    FAULT_KINDS,
    POLICY_FAULT_KINDS,
    SERVE_FAULT_KINDS,
    FaultEvent,
    FaultInjector,
    FaultyArray,
    record_evictions,
)

__all__ = [
    "ARRAY_FAULT_KINDS",
    "DESIGNS",
    "FAULT_KINDS",
    "POLICY_FAULT_KINDS",
    "SERVE_DESIGNS",
    "SERVE_FAULT_KINDS",
    "FaultCase",
    "FaultEvent",
    "FaultInjector",
    "FaultOutcome",
    "FaultyArray",
    "ReplayResult",
    "classify",
    "record_evictions",
    "run_case",
    "run_replay",
    "run_serve_replay",
]
