"""ZFault: deterministic fault injection, detection and minimization.

The resilience counterpart to the correctness stack: where ZSpec
*defines* the invariants and ZSan/ZCheck *verify* them on healthy
runs, ZFault deliberately corrupts the machinery — tag bits, walk
candidates, relocations, policy stamps, serve-layer eviction records —
and measures which corruptions the detectors actually catch, which
crash, and which silently change victims or miss rates.

Layers (each usable alone):

- :mod:`repro.faults.plan` — fault plans as serializable data;
- :mod:`repro.faults.inject` — seeded injectors riding the existing
  ``wrap_array`` hook and the controller's eviction choke point
  (``faults=None`` stays bit-identical);
- :mod:`repro.faults.harness` — golden-vs-faulted replay and the
  five-way outcome classifier;
- :mod:`repro.faults.campaign` — the parallel, checkpointed sweep and
  its degradation-metrics report;
- :mod:`repro.faults.faultmin` — delta-debugging minimal-fault search
  emitting replayable counterexamples;
- :mod:`repro.faults.cli` — ``zcache-repro faults``.
"""

from repro.faults.campaign import (
    CampaignConfig,
    CampaignOutcome,
    CampaignReport,
    build_cases,
    run_campaign,
)
from repro.faults.faultmin import (
    MinimalCounterexample,
    minimize_case,
    replay_counterexample,
)
from repro.faults.harness import (
    CLASSIFICATIONS,
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
    FaultInjector,
    FaultyArray,
    record_evictions,
)
from repro.faults.plan import (
    ARRAY_FAULT_KINDS,
    FAULT_KINDS,
    POLICY_FAULT_KINDS,
    SERVE_FAULT_KINDS,
    FaultEvent,
    FaultPlan,
)

__all__ = [
    "ARRAY_FAULT_KINDS",
    "CLASSIFICATIONS",
    "DESIGNS",
    "FAULT_KINDS",
    "POLICY_FAULT_KINDS",
    "SERVE_DESIGNS",
    "SERVE_FAULT_KINDS",
    "CampaignConfig",
    "CampaignOutcome",
    "CampaignReport",
    "FaultCase",
    "FaultEvent",
    "FaultInjector",
    "FaultOutcome",
    "FaultPlan",
    "FaultyArray",
    "MinimalCounterexample",
    "ReplayResult",
    "build_cases",
    "classify",
    "minimize_case",
    "record_evictions",
    "replay_counterexample",
    "run_campaign",
    "run_case",
    "run_replay",
    "run_serve_replay",
]
