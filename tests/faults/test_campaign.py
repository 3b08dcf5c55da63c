"""Tests for the campaign driver (repro.faults.campaign)."""

import json

from repro.faults.campaign import (
    CampaignConfig,
    CampaignReport,
    build_cases,
    run_campaign,
)
from repro.faults.harness import CLASSIFICATIONS, FaultOutcome
from repro.obs import ObsContext

#: small but real: every kind, every design, one trigger, one variant
CONFIG = CampaignConfig(
    base_seed=1, accesses=400, lines_per_way=16, triggers=(0.5,), variants=1
)


def outcome_fingerprint(outcome):
    """Everything observable, in deterministic order."""
    return [
        (key, o.to_dict()) for key, o in sorted(outcome.outcomes.items())
    ]


class TestRoster:
    def test_roster_is_deterministic_and_complete(self):
        cases = build_cases(CONFIG)
        assert [c.key for c in cases] == [c.key for c in build_cases(CONFIG)]
        # 4 designs x 5 array/policy kinds + 2 serve designs x 1 kind
        assert len(cases) == 4 * 5 + 2
        assert len({c.key for c in cases}) == len(cases)
        serve = [c for c in cases if c.serve]
        assert {c.design for c in serve} == {"Z4/16", "Z4/52"}
        assert all(c.kind == "drop-eviction-log" for c in serve)

    def test_seeds_derive_from_case_identity(self):
        a = build_cases(CONFIG)
        b = build_cases(CampaignConfig(
            base_seed=2, accesses=400, lines_per_way=16,
            triggers=(0.5,), variants=1,
        ))
        assert all(x.seed != y.seed for x, y in zip(a, b))


class TestDeterministicMerge:
    def test_parallel_matches_serial_bit_for_bit(self):
        serial = run_campaign(CONFIG, jobs=1)
        parallel = run_campaign(CONFIG, jobs=2)
        assert not serial.errors and not parallel.errors
        assert not parallel.degraded
        assert outcome_fingerprint(serial) == outcome_fingerprint(parallel)
        assert serial.report.to_dict() == parallel.report.to_dict()

    def test_classification_counters_reach_parent_registry(self):
        obs = ObsContext()
        outcome = run_campaign(CONFIG, jobs=1, obs=obs)
        snapshot = obs.metrics.snapshot()
        fault_keys = [k for k in snapshot if k.startswith("faults.")]
        assert len(fault_keys) >= 1
        total = sum(snapshot[k] for k in fault_keys)
        assert total == len(outcome.outcomes)


class TestCheckpoint:
    def test_resume_restores_everything(self, tmp_path):
        path = tmp_path / "faults.ck.json"
        first = run_campaign(CONFIG, jobs=2, checkpoint=str(path))
        assert path.exists()
        second = run_campaign(CONFIG, jobs=2, checkpoint=str(path))
        assert second.restored == len(first.outcomes)
        assert outcome_fingerprint(first) == outcome_fingerprint(second)

    def test_partial_checkpoint_resume_is_bit_identical(self, tmp_path):
        # A campaign killed mid-run leaves a half-written checkpoint;
        # the resume restores that half, recomputes the rest, and the
        # union is indistinguishable from an undisturbed run.
        path = tmp_path / "faults.ck.json"
        full = run_campaign(CONFIG, jobs=1, checkpoint=str(path))
        data = json.loads(path.read_text(encoding="utf-8"))
        keys = sorted(data["results"])
        kept = keys[: len(keys) // 2]
        data["results"] = {k: data["results"][k] for k in kept}
        path.write_text(json.dumps(data), encoding="utf-8")

        resumed = run_campaign(CONFIG, jobs=2, checkpoint=str(path))
        assert resumed.restored == len(kept)
        assert outcome_fingerprint(full) == outcome_fingerprint(resumed)

    def test_config_change_invalidates_checkpoint(self, tmp_path):
        path = tmp_path / "faults.ck.json"
        run_campaign(CONFIG, jobs=1, checkpoint=str(path))
        other = CampaignConfig(
            base_seed=2, accesses=400, lines_per_way=16,
            triggers=(0.5,), variants=1,
        )
        resumed = run_campaign(other, jobs=1, checkpoint=str(path))
        assert resumed.restored == 0


class TestReport:
    def test_table_rows_are_consistent(self):
        outcome = run_campaign(CONFIG, jobs=1)
        rows = outcome.report.rows()
        assert rows == sorted(
            rows, key=lambda r: (r["design"], r["kind"])
        )
        for row in rows:
            assert row["cases"] == sum(row[c] for c in CLASSIFICATIONS)
            assert 0.0 <= row["detection_rate"] <= 1.0
        total = sum(row["cases"] for row in rows)
        assert total == len(outcome.outcomes)

    def test_campaign_finds_detections_and_the_planted_miss(self):
        # Through the worker pool; the structure below is the same at
        # any jobs (TestDeterministicMerge).
        outcome = run_campaign(CONFIG, jobs=2)
        assert not outcome.errors and not outcome.degraded
        report = outcome.report
        for kind in ("drop-relocation", "misdirect-relocation"):
            # The relocation detectors work where relocation exists...
            assert report.detection_rate("Z4/16", kind) == 1.0
            assert report.detection_rate("Z4/52", kind) == 1.0
            # ...and cannot fire where it does not.
            cell = report.cells[("SA-4", kind)]
            assert cell["benign"] == cell_total(cell)
        # The planted miss: stamp corruption is never detected anywhere.
        for (design, kind), cell in report.cells.items():
            if kind == "stamp-corrupt":
                assert cell["detected"] == 0

    def test_render_and_payload(self):
        outcome = run_campaign(CONFIG, jobs=1)
        text = outcome.report.render()
        assert "design" in text and "det-rate" in text
        payload = outcome.to_dict()
        assert set(payload) >= {"cases", "report", "restored", "degraded"}
        # payload round-trips through JSON (the BENCH file contract)
        json.loads(json.dumps(payload))

    def test_report_add_folds_taxonomy(self):
        report = CampaignReport()
        report.add(FaultOutcome(
            key="k1", design="Z4/16", kind="stale-walk",
            classification="detected", detector="walk-records-current",
            detector_kind="walk-stale",
        ))
        report.add(FaultOutcome(
            key="k2", design="Z4/16", kind="stamp-corrupt",
            classification="silent-wrong-victim", mpki_delta=-3.0,
        ))
        assert report.taxonomy == {"walk-stale": 1}
        assert report.detectors == {"walk-records-current": 1}
        assert report.mean_drift("Z4/16", "stamp-corrupt") == 3.0


def cell_total(cell):
    return sum(cell.values())
