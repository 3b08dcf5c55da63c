"""Campaign driver: sweep fault location x timing x kind across designs.

The campaign is an outer product — every fault kind, at several
trigger points and locations, against every design — of *independent*
:func:`~repro.faults.harness.run_case` units: a roster, run by the same
:func:`~repro.experiments.parallel.run_roster` that runs the design
sweep. The driver owns restore from a fingerprint-validated checkpoint,
the in-process path, the worker pool, roster-order join, the one
failure path (a case that raises or whose worker dies is recorded in
:attr:`CampaignOutcome.errors`, never rerun) and the checkpoint record
after every finished case; this module supplies the roster
(:func:`build_cases`, per-case seeds via
:func:`~repro.experiments.parallel.derive_job_seed`), the worker and
the commit. Parallel results are bit-identical to a serial run's.

Classification counts flow into the parent
:class:`~repro.obs.MetricsRegistry` as
``faults.<design>.<kind>.<classification>`` counters; the aggregate
:class:`CampaignReport` renders the per-design detection-rate and
MPKI-drift tables that ``BENCH_faults.json`` commits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.experiments.parallel import derive_job_seed, run_roster
from repro.faults.harness import (
    CLASSIFICATIONS,
    DESIGNS,
    SERVE_DESIGNS,
    FaultCase,
    FaultOutcome,
    run_case,
)
from repro.faults.plan import ARRAY_FAULT_KINDS, POLICY_FAULT_KINDS
from repro.obs import Heartbeat, ObsContext, sanitize_component

__all__ = [
    "CAMPAIGN_VERSION",
    "CampaignConfig",
    "CampaignOutcome",
    "CampaignReport",
    "build_cases",
    "run_campaign",
]

#: checkpoint schema version (bump on incompatible change)
CAMPAIGN_VERSION = 1

#: trigger points, as fractions of the replay length
DEFAULT_TRIGGERS = (0.25, 0.5, 0.85)

#: location/bit variants per (design, kind, trigger)
DEFAULT_VARIANTS = 2


@dataclass(frozen=True, slots=True)
class CampaignConfig:
    """Everything that identifies one campaign (and its checkpoint)."""

    base_seed: int = 1
    accesses: int = 2000
    lines_per_way: int = 64
    deep_interval: int = 16
    triggers: tuple = DEFAULT_TRIGGERS
    variants: int = DEFAULT_VARIANTS
    designs: tuple = tuple(DESIGNS)
    include_serve: bool = True

    def fingerprint(self, cases: Sequence[FaultCase]) -> dict:
        """Checkpoint identity: same fingerprint == resumable."""
        return {
            "version": CAMPAIGN_VERSION,
            "base_seed": self.base_seed,
            "accesses": self.accesses,
            "lines_per_way": self.lines_per_way,
            "deep_interval": self.deep_interval,
            "cases": sorted(case.key for case in cases),
        }


def build_cases(config: CampaignConfig) -> list:
    """The deterministic case roster for one campaign configuration.

    Array and policy fault kinds sweep every design; the serve-layer
    kind sweeps the zcache designs the shard can host. Locations and
    bits vary with the variant index so the sweep samples different
    lines and tag bits, and every case's seed derives from its key.
    """
    cases: list[FaultCase] = []
    kinds = ARRAY_FAULT_KINDS + POLICY_FAULT_KINDS
    for design in config.designs:
        for kind in kinds:
            cases.extend(_cases_for(config, design, kind, serve=False))
    if config.include_serve:
        for design in config.designs:
            if design in SERVE_DESIGNS:
                cases.extend(
                    _cases_for(
                        config, design, "drop-eviction-log", serve=True
                    )
                )
    return cases


def _cases_for(
    config: CampaignConfig, design: str, kind: str, serve: bool
) -> Iterable[FaultCase]:
    """All (trigger x variant) cases of one (design, kind) cell."""
    for trigger in config.triggers:
        at = max(0, min(config.accesses - 1, int(trigger * config.accesses)))
        for variant in range(config.variants):
            identity = f"{design}|{kind}|at{at}|v{variant}"
            yield FaultCase(
                design=design,
                kind=kind,
                at=at,
                seed=derive_job_seed(config.base_seed, identity) & 0xFFFFFFFF,
                accesses=config.accesses,
                lines_per_way=config.lines_per_way,
                way=variant,
                index=3 * variant + 1,
                bit=2 * variant + 1,
                deep_interval=config.deep_interval,
                serve=serve,
            )


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class CampaignReport:
    """Per-(design, kind) degradation table plus violation taxonomy."""

    #: (design, kind) -> {classification: count}
    cells: dict = field(default_factory=dict)
    #: (design, kind) -> summed |mpki delta| over silent outcomes
    drift: dict = field(default_factory=dict)
    #: violation kind (taxonomy) -> count over detected outcomes
    taxonomy: dict = field(default_factory=dict)
    #: detector name -> count over detected outcomes
    detectors: dict = field(default_factory=dict)

    def add(self, outcome: FaultOutcome) -> None:
        """Fold one classified case into the tables."""
        cell = self.cells.setdefault(
            (outcome.design, outcome.kind), dict.fromkeys(CLASSIFICATIONS, 0)
        )
        cell[outcome.classification] += 1
        if outcome.classification.startswith("silent"):
            key = (outcome.design, outcome.kind)
            self.drift[key] = self.drift.get(key, 0.0) + abs(
                outcome.mpki_delta
            )
        if outcome.classification == "detected":
            kind = outcome.detector_kind or "unclassified"
            self.taxonomy[kind] = self.taxonomy.get(kind, 0) + 1
            name = outcome.detector or "unknown"
            self.detectors[name] = self.detectors.get(name, 0) + 1

    def detection_rate(self, design: str, kind: str) -> float:
        """Detected fraction of one cell's cases (0.0 for empty cells)."""
        cell = self.cells.get((design, kind))
        if not cell:
            return 0.0
        total = sum(cell.values())
        return cell["detected"] / total if total else 0.0

    def mean_drift(self, design: str, kind: str) -> float:
        """Mean |MPKI delta| over one cell's silent outcomes."""
        cell = self.cells.get((design, kind))
        if not cell:
            return 0.0
        silent = cell["silent-wrong-victim"] + cell["silent-mpki-drift"]
        if not silent:
            return 0.0
        return self.drift.get((design, kind), 0.0) / silent

    def rows(self) -> list:
        """Table rows (dicts), sorted by design label then fault kind."""
        out = []
        for (design, kind), cell in sorted(self.cells.items()):
            total = sum(cell.values())
            out.append(
                {
                    "design": design,
                    "kind": kind,
                    "cases": total,
                    **cell,
                    "detection_rate": round(
                        self.detection_rate(design, kind), 4
                    ),
                    "mean_abs_mpki_drift": round(
                        self.mean_drift(design, kind), 4
                    ),
                }
            )
        return out

    def to_dict(self) -> dict:
        """JSON-safe payload (the BENCH_faults.json tables)."""
        return {
            "table": self.rows(),
            "taxonomy": dict(sorted(self.taxonomy.items())),
            "detectors": dict(sorted(self.detectors.items())),
        }

    def render(self) -> str:
        """Human-readable campaign table."""
        lines = [
            f"{'design':8s} {'fault kind':22s} {'cases':>5s} {'det':>4s} "
            f"{'crash':>5s} {'wrongv':>6s} {'drift':>5s} {'benign':>6s} "
            f"{'det-rate':>8s} {'|dMPKI|':>8s}"
        ]
        for row in self.rows():
            lines.append(
                f"{row['design']:8s} {row['kind']:22s} {row['cases']:5d} "
                f"{row['detected']:4d} {row['crash']:5d} "
                f"{row['silent-wrong-victim']:6d} "
                f"{row['silent-mpki-drift']:5d} {row['benign']:6d} "
                f"{row['detection_rate']:8.2f} "
                f"{row['mean_abs_mpki_drift']:8.2f}"
            )
        if self.taxonomy:
            parts = ", ".join(
                f"{kind}={count}"
                for kind, count in sorted(self.taxonomy.items())
            )
            lines.append(f"violation taxonomy: {parts}")
        return "\n".join(lines)


@dataclass(slots=True)
class CampaignOutcome:
    """Everything a campaign produced, plus how it got there."""

    #: case key -> FaultOutcome, in deterministic case order
    outcomes: dict = field(default_factory=dict)
    report: CampaignReport = field(default_factory=CampaignReport)
    #: cases restored from the checkpoint instead of recomputed
    restored: int = 0
    #: case key -> error string for cases that produced no outcome
    errors: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-safe payload: per-case outcomes plus the tables."""
        return {
            "cases": {
                key: outcome.to_dict()
                for key, outcome in self.outcomes.items()
            },
            "report": self.report.to_dict(),
            "restored": self.restored,
            "errors": dict(self.errors),
        }


# ---------------------------------------------------------------------------
# The campaign
# ---------------------------------------------------------------------------


def _case_worker(case: FaultCase) -> FaultOutcome:
    """Process-pool entry point: one golden + faulted replay pair."""
    return run_case(case)


def run_campaign(
    config: CampaignConfig,
    *,
    jobs: Optional[int] = None,
    checkpoint: Optional[str] = None,
    obs: Optional[ObsContext] = None,
    cases: Optional[Sequence[FaultCase]] = None,
) -> CampaignOutcome:
    """Run the fault campaign; bit-identical at any worker count.

    Parameters
    ----------
    jobs:
        Worker process count. ``1`` runs everything in-process;
        ``None`` uses the machine's available CPUs.
    checkpoint:
        Path of a JSON checkpoint. Finished cases found there (from a
        matching interrupted campaign) are restored, not recomputed.
    obs:
        Parent observability context: classification counters register
        under ``faults.*`` and its heartbeat reports progress.
    cases:
        Explicit case roster (defaults to :func:`build_cases`).
    """
    roster = list(cases) if cases is not None else build_cases(config)
    outcome = CampaignOutcome()

    def commit(case, result: FaultOutcome) -> tuple:
        """Fold one classified case into the outcome (and the registry)."""
        outcome.outcomes[result.key] = result
        outcome.report.add(result)
        if obs is not None:
            scope = (
                f"faults.{sanitize_component(result.design)}."
                f"{sanitize_component(result.kind)}"
            )
            obs.metrics.scoped(scope).counter(result.classification).inc()
        return result, None

    def fail(case: FaultCase, error: str) -> None:
        outcome.errors[case.key] = error

    outcome.restored = run_roster(
        "faults",
        roster,
        jobs=jobs,
        checkpoint=checkpoint,
        fingerprint=config.fingerprint(roster),
        heartbeat=obs.heartbeat if obs is not None else Heartbeat.from_env(),
        decode=lambda entry: FaultOutcome.from_dict(entry["result"]),
        local=_case_worker,
        submit=lambda pool, case: pool.submit(_case_worker, case),
        commit=commit,
        fail=fail,
    )
    return outcome


def write_campaign_json(outcome: CampaignOutcome, path: str) -> None:
    """Write the full campaign payload (sorted, reproducible)."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(outcome.to_dict(), f, indent=1, sort_keys=True)
