"""Tests for minimal-fault search (repro.faults.faultmin)."""

import pytest

from repro.faults.faultmin import (
    MinimalCounterexample,
    Minimizer,
    minimize_case,
    replay_counterexample,
)
from repro.faults.harness import FaultCase
from repro.faults.plan import FaultEvent, FaultPlan

#: a detected counterexample (stale-walk trips walk-records-current)
DETECTED = FaultCase(
    design="Z4/16", kind="stale-walk", at=400, seed=7,
    accesses=800, lines_per_way=16, bit=1,
)
#: a silent counterexample (the planted detector miss)
SILENT = FaultCase(
    design="Z4/16", kind="stamp-corrupt", at=400, seed=7,
    accesses=800, lines_per_way=16,
)


class TestMinimize:
    @pytest.mark.parametrize(
        "case,expected",
        [
            pytest.param(DETECTED, "detected", id="stale-walk-detected"),
            pytest.param(SILENT, "silent-wrong-victim", id="stamp-silent"),
        ],
    )
    def test_minimizes_two_fault_kinds_preserving_verdict(
        self, case, expected
    ):
        ce = minimize_case(case)
        assert ce.classification == expected
        assert ce.minimized_events == 1
        assert len(ce.plan) == 1
        # faultmin shrinks, never grows
        (event,) = ce.plan
        assert event.at <= case.at
        assert ce.probes >= 1
        # ...and what it emits replays to the same verdict from its
        # JSON payload alone (detected or silent alike).
        assert replay_counterexample(ce.to_dict())["match"] is True

    def test_ddmin_strips_irrelevant_events(self):
        # A two-event plan where only the stale-walk matters: ddmin
        # must drop the decoy and keep the verdict.
        plan = FaultPlan(events=(
            FaultEvent(kind="stale-walk", at=400, bit=1),
            FaultEvent(kind="stamp-corrupt", at=100),
        ))
        ce = minimize_case(DETECTED, plan=plan)
        assert ce.classification == "detected"
        assert ce.original_events == 2
        assert ce.minimized_events == 1
        assert ce.plan.kinds() == ("stale-walk",)

    def test_benign_baseline_returns_unminimized(self):
        benign = FaultCase(
            design="SA-4", kind="drop-relocation", at=200, seed=7,
            accesses=400, lines_per_way=16,
        )
        ce = minimize_case(benign)
        assert ce.classification == "benign"
        assert ce.steps == []
        assert ce.minimized_events == ce.original_events

    def test_budget_is_enforced(self):
        mini = Minimizer(SILENT, budget=0)
        with pytest.raises(RuntimeError, match="budget"):
            mini.verdict(SILENT.plan())

    def test_probe_cache_spends_no_budget_on_repeats(self):
        mini = Minimizer(SILENT, budget=5)
        plan = SILENT.plan()
        first = mini.probe(plan)
        spent = mini.probes
        assert mini.probe(plan) == first
        assert mini.probes == spent


class TestCounterexamples:
    def test_counterexample_roundtrip_and_replay(self):
        ce = minimize_case(DETECTED)
        data = ce.to_dict()
        restored = MinimalCounterexample.from_dict(data)
        assert restored.plan == ce.plan
        assert restored.case == ce.case
        report = replay_counterexample(data)
        assert report["match"] is True
        assert report["observed"] == ce.classification
        assert report["detector"] == ce.detector

    def test_replay_flags_a_tampered_counterexample(self):
        ce = minimize_case(DETECTED)
        data = ce.to_dict()
        data["classification"] = "benign"
        report = replay_counterexample(data)
        assert report["match"] is False
