"""Tests for the replay harness and classifier (repro.faults.harness).

Includes the planted-detector-miss acceptance: ``stamp-corrupt``
targets replacement-policy state, which no registered ZSpec invariant
reaches, so it must *never* classify as ``detected`` — it is the
fault table's control proving the detector taxonomy has a known hole.
"""

import pytest

from repro.analysis.spec import INVARIANT_REGISTRY
from repro.faults import harness
from repro.faults.harness import (
    DESIGNS,
    SERVE_DESIGNS,
    FaultCase,
    classify,
    run_case,
    run_replay,
    run_serve_replay,
)
from repro.faults.inject import FaultEvent
from repro.serve.shard import CacheShard

SEED = 7
ACCESSES = 800
LPW = 16


def replay(design, faults=None, **kw):
    kw.setdefault("seed", SEED)
    kw.setdefault("accesses", ACCESSES)
    kw.setdefault("lines_per_way", LPW)
    return run_replay(design, faults=faults, **kw)


class TestGoldenPath:
    def test_golden_is_deterministic(self):
        a = replay("Z4/16")
        b = replay("Z4/16")
        assert (a.misses, a.hits, a.evictions) == (
            b.misses,
            b.hits,
            b.evictions,
        )
        assert a.detector is None and not a.crashed
        assert a.completed == ACCESSES

    @pytest.mark.parametrize("design", list(DESIGNS))
    def test_empty_plan_is_bit_identical_to_no_plan(self, design):
        # faults=None and an empty schedule must be indistinguishable: the
        # injector stack with nothing armed is a pure proxy.
        golden = replay(design, faults=None)
        empty = replay(design, faults=[])
        assert classify(empty, golden) == "benign"
        assert empty.evictions == golden.evictions
        assert (empty.misses, empty.hits) == (golden.misses, golden.hits)
        # The no-fault control: a detector that fires on clean traffic
        # would poison every table verdict — not even with the deep
        # scan on every access.
        for clean in (golden, replay(design, deep_interval=1)):
            assert clean.detector is None and not clean.crashed

    def test_serve_empty_plan_is_bit_identical(self):
        golden = run_serve_replay(
            "Z4/16", seed=SEED, accesses=ACCESSES, lines_per_way=LPW
        )
        empty = run_serve_replay(
            "Z4/16",
            seed=SEED,
            accesses=ACCESSES,
            lines_per_way=LPW,
            faults=[],
        )
        assert classify(empty, golden) == "benign"
        assert golden.detector is None and not golden.crashed

    def test_serve_rejects_non_z_designs(self):
        with pytest.raises(ValueError, match="zcache design"):
            run_serve_replay("SA-4", seed=1, accesses=10)


class TestDetection:
    def test_stale_walk_detected_by_walk_records_current(self):
        golden = replay("Z4/16")
        faulted = replay(
            "Z4/16", faults=[FaultEvent("stale-walk", 400, bit=1)]
        )
        assert classify(faulted, golden) == "detected"
        assert faulted.detector == "walk-records-current"
        assert faulted.detector_kind == "walk-stale"

    def test_drop_relocation_detected_by_conservation(self):
        golden = replay("Z4/16")
        faulted = replay(
            "Z4/16", faults=[FaultEvent("drop-relocation", 400)]
        )
        assert classify(faulted, golden) == "detected"
        assert faulted.detector == "commit-conservation"
        assert faulted.detector_kind == "conservation"

    def test_misdirect_relocation_detected_as_map_desync(self):
        golden = replay("Z4/52")
        faulted = replay(
            "Z4/52", faults=[FaultEvent("misdirect-relocation", 400, bit=1)]
        )
        assert classify(faulted, golden) == "detected"
        assert faulted.detector_kind == "map-desync"

    def test_tag_flip_detected_by_deep_scan(self):
        # With the deep scan running every access the duplicate-tag /
        # map-desync state checks win the race against a policy crash.
        golden = replay("Z4/16", deep_interval=1)
        faulted = replay(
            "Z4/16",
            faults=[FaultEvent("tag-flip", 400, bit=1)],
            deep_interval=1,
        )
        assert classify(faulted, golden) == "detected"
        assert faulted.detector_kind in ("duplicate-tag", "map-desync")

    def test_relocation_faults_benign_on_set_associative(self):
        # SA-4 has no relocation machinery: the armed event physically
        # cannot fire, which is the design-dependence story the
        # fault table tells.
        golden = replay("SA-4")
        for kind in ("drop-relocation", "misdirect-relocation"):
            faulted = replay("SA-4", faults=[FaultEvent(kind, 400)])
            assert classify(faulted, golden) == "benign"


class TestPlantedDetectorMiss:
    """stamp-corrupt is outside every registered invariant's reach."""

    def test_no_registered_invariant_covers_policy_state(self):
        # The registry's vocabulary is array state; nothing in it
        # mentions policy stamps — the hole is structural, not luck.
        for invariant in INVARIANT_REGISTRY.values():
            assert "stamp" not in invariant.name
            assert "policy" not in invariant.kind

    @pytest.mark.parametrize("design", list(DESIGNS))
    @pytest.mark.parametrize("at", [100, 400, 700])
    def test_stamp_corrupt_never_detected(self, design, at):
        golden = replay(design)
        faulted = replay(design, faults=[FaultEvent("stamp-corrupt", at)])
        verdict = classify(faulted, golden)
        assert verdict != "detected"
        assert verdict != "crash"
        assert faulted.detector is None

    def test_stamp_corrupt_surfaces_as_silent_wrong_victim(self):
        # The miss must not be *invisible*: on designs under pressure
        # the zeroed stamp elects a different victim, and only the
        # golden diff sees it.
        golden = replay("Z4/16")
        faulted = replay(
            "Z4/16", faults=[FaultEvent("stamp-corrupt", 400)]
        )
        assert classify(faulted, golden) == "silent-wrong-victim"
        assert faulted.evictions != golden.evictions


class TestServeLayer:
    def test_drop_eviction_log_detected_by_shard_consistency(self):
        golden = run_serve_replay(
            "Z4/16", seed=11, accesses=2000, lines_per_way=64
        )
        faulted = run_serve_replay(
            "Z4/16",
            seed=11,
            accesses=2000,
            lines_per_way=64,
            faults=[FaultEvent("drop-eviction-log", 1000)],
        )
        assert classify(faulted, golden) == "detected"
        assert faulted.detector == "shard-consistency"
        assert faulted.detector_kind == "payload-desync"


    def test_assertion_inside_put_is_a_crash(self, monkeypatch):
        # Only the consistency check is the serve layer's detector: an
        # assert tripping inside the shard's own put is the machinery
        # failing, not a detection.
        real_put = CacheShard.put
        calls = []

        def put(self, *args):
            calls.append(args)
            if len(calls) == 100:
                raise AssertionError("victim vanished mid-fill")
            return real_put(self, *args)

        monkeypatch.setattr(CacheShard, "put", put)
        faulted = run_serve_replay(
            "Z4/16", seed=SEED, accesses=ACCESSES, lines_per_way=LPW,
            faults=[],
        )
        assert classify(faulted, None) == "crash"
        assert faulted.detector == "crash:AssertionError"
        assert faulted.detector_kind is None


class TestRunCase:
    def test_run_case_classifies_a_detected_fault(self):
        case = FaultCase(
            design="Z4/16",
            kind="stale-walk",
            at=400,
            seed=SEED,
            accesses=ACCESSES,
            lines_per_way=LPW,
            bit=1,
        )
        outcome = run_case(case)
        assert outcome.classification == "detected"
        assert outcome.detector == "walk-records-current"

    @pytest.mark.parametrize(
        ("kind", "replays"), [("stale-walk", 1), ("stamp-corrupt", 2)]
    )
    def test_golden_replays_only_for_a_clean_faulted_run(
        self, monkeypatch, kind, replays
    ):
        # classify never reads the golden twin of a run that crashed or
        # tripped a detector, so run_case does not replay it.
        seen = []
        real = harness.run_replay

        def counting(design, **kw):
            seen.append(kw["faults"])
            return real(design, **kw)

        monkeypatch.setattr(harness, "run_replay", counting)
        case = FaultCase(
            "Z4/16", kind, 400, SEED, accesses=ACCESSES, lines_per_way=LPW
        )
        run_case(case)
        assert len(seen) == replays
        assert seen[0] == [FaultEvent(kind, 400)]

    def test_serve_designs_subset_of_designs(self):
        assert set(SERVE_DESIGNS) <= set(DESIGNS)
