"""Tests for the parallel sweep engine (repro.experiments.parallel)."""

import json
import os

import pytest

from repro.experiments.parallel import (
    ParallelSweepOutcome,
    SweepCheckpoint,
    SweepJob,
    default_jobs,
    derive_job_seed,
    run_parallel_sweeps,
    run_sweep_cli,
)
from repro.experiments.runner import (
    ExperimentScale,
    collect_design_sweeps,
    run_design_sweep,
)
from repro.obs import Heartbeat, ObsContext, SpanTracker
from repro.obs.timeline import phase_stats
from repro.sim import CMPConfig, L2DesignConfig

WORKLOADS = ("gcc", "canneal")
DESIGNS = (
    L2DesignConfig(kind="sa", ways=4, hash_kind="h3"),
    L2DesignConfig(kind="z", ways=4, levels=2),
)
SCALE = ExperimentScale(instructions_per_core=600, workloads=WORKLOADS, seed=5)


def mini_sweep(**kw):
    kw.setdefault("workloads", WORKLOADS)
    kw.setdefault("designs", DESIGNS)
    kw.setdefault("scale", SCALE)
    return run_parallel_sweeps(**kw)


class TestJobIdentity:
    def test_job_key_and_scope(self):
        job = SweepJob("gcc", DESIGNS[1], "lru", seed=1)
        assert job.key == "gcc|Z4/16-S|lru"
        assert job.scope(include_workload=True) == "gcc.Z4_16-S.lru"
        assert job.scope(include_workload=False) == "Z4_16-S.lru"

    def test_seed_is_deterministic_and_distinct(self):
        a = derive_job_seed(1, "gcc|SA-4h-S|lru")
        assert a == derive_job_seed(1, "gcc|SA-4h-S|lru")
        assert a != derive_job_seed(2, "gcc|SA-4h-S|lru")
        assert a != derive_job_seed(1, "gcc|SA-4h-S|opt")

    def test_default_jobs_positive(self):
        assert default_jobs() >= 1


class TestDeterministicMerge:
    def test_parallel_matches_serial_bit_for_bit(self):
        serial = mini_sweep(jobs=1)
        parallel = mini_sweep(jobs=2)
        assert set(serial.sweeps) == set(parallel.sweeps)
        for w in serial.sweeps:
            assert serial.sweeps[w].results == parallel.sweeps[w].results
        assert not parallel.degraded
        assert all(
            o.status == "parallel" for o in parallel.outcomes.values()
        )

    def test_parallel_matches_run_design_sweep(self):
        direct = run_design_sweep("gcc", DESIGNS, scale=SCALE)
        via_engine = run_design_sweep("gcc", DESIGNS, scale=SCALE, jobs=2)
        assert direct.results == via_engine.results

    def test_collect_design_sweeps_parallel_path(self):
        serial = collect_design_sweeps(WORKLOADS, DESIGNS, scale=SCALE)
        parallel = collect_design_sweeps(
            WORKLOADS, DESIGNS, scale=SCALE, jobs=2
        )
        for w in WORKLOADS:
            assert serial[w].results == parallel[w].results

    def test_collect_design_sweeps_names_metrics_alike_at_any_jobs(self):
        names = []
        for jobs in (1, 2):
            obs = ObsContext()
            collect_design_sweeps(
                WORKLOADS, DESIGNS, scale=SCALE, jobs=jobs, obs=obs
            )
            names.append(set(obs.metrics.snapshot()))
        assert names[0] == names[1]
        # one subtree per job, never two workloads summed into one
        assert {n.split(".")[0] for n in names[0]} == set(WORKLOADS)

    def test_worker_metrics_merge_into_parent_registry(self):
        obs_serial, obs_parallel = ObsContext(), ObsContext()
        mini_sweep(jobs=1, obs=obs_serial)
        mini_sweep(jobs=2, obs=obs_parallel)
        snap_serial = obs_serial.metrics.snapshot()
        snap_parallel = obs_parallel.metrics.snapshot()
        assert snap_parallel
        # counters and histograms merge deterministically
        assert snap_serial == snap_parallel

    def test_parent_profiler_sees_worker_phases(self):
        obs = ObsContext(spans=SpanTracker(seed=1))
        mini_sweep(jobs=2, obs=obs)
        phases = {span.name for span in obs.spans.spans()}
        assert any(p.startswith("capture.") for p in phases)
        assert any(p.startswith("replay.") for p in phases)


class TestCheckpoint:
    def test_resume_restores_everything(self, tmp_path):
        path = tmp_path / "ck.json"
        first = mini_sweep(jobs=2, checkpoint=str(path))
        assert path.exists()
        second = mini_sweep(jobs=2, checkpoint=str(path))
        assert second.restored == len(first.outcomes)
        assert all(
            o.status == "checkpoint" for o in second.outcomes.values()
        )
        for w in first.sweeps:
            assert first.sweeps[w].results == second.sweeps[w].results

    def test_stale_checkpoint_is_ignored(self, tmp_path):
        path = tmp_path / "ck.json"
        mini_sweep(jobs=1, checkpoint=str(path))
        stale_scale = ExperimentScale(
            instructions_per_core=600, workloads=WORKLOADS, seed=6
        )
        again = mini_sweep(jobs=1, checkpoint=str(path), scale=stale_scale)
        assert again.restored == 0

    def test_engine_change_invalidates_checkpoint(self, tmp_path):
        # The turbo engine silently falls back to reference for designs
        # it cannot vectorize, so a checkpoint written under one engine
        # must never seed a resume under the other: mixed-engine result
        # sets would be unattributable. The fingerprint carries the
        # engine to force a clean re-run instead.
        path = tmp_path / "ck.json"
        first = mini_sweep(
            jobs=1, checkpoint=str(path), cfg=CMPConfig(engine="reference")
        )
        assert first.restored == 0 and path.exists()
        again = mini_sweep(
            jobs=1, checkpoint=str(path), cfg=CMPConfig(engine="turbo")
        )
        assert again.restored == 0
        # Same engine again: the rewritten checkpoint is honoured.
        third = mini_sweep(
            jobs=1, checkpoint=str(path), cfg=CMPConfig(engine="turbo")
        )
        assert third.restored == len(again.outcomes)

    def test_corrupt_checkpoint_is_ignored(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text("{not json", encoding="utf-8")
        ck = SweepCheckpoint(path, fingerprint={"v": 1})
        assert ck.load() == {}

    def test_record_is_atomic_json(self, tmp_path):
        path = tmp_path / "ck.json"
        mini_sweep(jobs=1, checkpoint=str(path))
        data = json.loads(path.read_text(encoding="utf-8"))
        assert set(data) == {"fingerprint", "results"}
        assert len(data["results"]) == len(WORKLOADS) * len(DESIGNS)
        assert not path.with_name(path.name + ".tmp").exists()


def _crash_worker_once(policy):
    """Picklable policy wrapper that hard-kills the first worker to run it.

    The crash flag travels via the environment (workers inherit it);
    the first process through dies with ``os._exit`` — no exception,
    no cleanup, exactly a killed worker — and every later call (other
    workers after the flag lands, the parent's degraded-serial rerun,
    a resumed campaign) passes through untouched.
    """
    flag = os.environ.get("ZCACHE_TEST_CRASH_FLAG")
    if flag and not os.path.exists(flag):
        with open(flag, "w", encoding="utf-8") as f:
            f.write("crashed")
        os._exit(17)
    return policy


class TestCrashResume:
    def test_worker_crash_checkpoints_then_resumes_bit_identical(
        self, tmp_path, monkeypatch
    ):
        flag = tmp_path / "crash.flag"
        ck = tmp_path / "ck.json"
        monkeypatch.setenv("ZCACHE_TEST_CRASH_FLAG", str(flag))
        crashed = mini_sweep(
            jobs=2, checkpoint=str(ck), policy_wrapper=_crash_worker_once
        )
        # The worker genuinely died mid-campaign...
        assert flag.exists()
        assert crashed.degraded
        # ...yet the campaign completed every job and checkpointed it.
        assert not crashed.failed
        data = json.loads(ck.read_text(encoding="utf-8"))
        assert len(data["results"]) == len(WORKLOADS) * len(DESIGNS)

        # A resumed run restores everything and recomputes nothing.
        resumed = mini_sweep(
            jobs=2, checkpoint=str(ck), policy_wrapper=_crash_worker_once
        )
        assert resumed.restored == len(crashed.outcomes)

        # Both the crashed-and-degraded run and the resume are
        # bit-identical to an undisturbed serial sweep.
        clean = mini_sweep(jobs=1)
        for w in clean.sweeps:
            assert clean.sweeps[w].results == crashed.sweeps[w].results
            assert clean.sweeps[w].results == resumed.sweeps[w].results

    def test_partial_checkpoint_resume_is_bit_identical(self, tmp_path):
        # Simulate the parent dying mid-campaign: keep only half the
        # checkpoint entries (the state an interrupted run leaves) and
        # resume — restored + recomputed must equal the clean run.
        ck = tmp_path / "ck.json"
        full = mini_sweep(jobs=1, checkpoint=str(ck))
        data = json.loads(ck.read_text(encoding="utf-8"))
        keys = sorted(data["results"])
        kept = keys[: len(keys) // 2]
        data["results"] = {k: data["results"][k] for k in kept}
        ck.write_text(json.dumps(data), encoding="utf-8")

        resumed = mini_sweep(jobs=2, checkpoint=str(ck))
        assert resumed.restored == len(kept)
        statuses = {o.status for o in resumed.outcomes.values()}
        assert "checkpoint" in statuses and statuses - {"checkpoint"}
        for w in full.sweeps:
            assert full.sweeps[w].results == resumed.sweeps[w].results


class TestRobustness:
    def test_serial_failure_is_marked_and_sweep_continues(self):
        calls = []

        def exploding_wrapper(policy):
            calls.append(policy)
            raise RuntimeError("boom")

        outcome = mini_sweep(jobs=1, policy_wrapper=exploding_wrapper)
        assert calls  # the wrapper genuinely ran
        assert len(outcome.failed) == len(WORKLOADS) * len(DESIGNS)
        for o in outcome.failed:
            assert o.status == "failed"
            assert "RuntimeError" in o.error
        # failed jobs leave no results behind
        assert all(not s.results for s in outcome.sweeps.values())

    def test_unpicklable_job_degrades_to_serial(self):
        # A lambda cannot cross the process boundary: every submission
        # fails, the retry fails too, and the degraded-serial fallback
        # (where the lambda works fine) completes the sweep.
        outcome = mini_sweep(jobs=2, policy_wrapper=lambda p: p)
        assert outcome.degraded
        assert not outcome.failed
        assert all(
            o.status == "serial" for o in outcome.outcomes.values()
        )
        clean = mini_sweep(jobs=1)
        for w in clean.sweeps:
            assert clean.sweeps[w].results == outcome.sweeps[w].results

    def test_degraded_heartbeat_reports_serial_fallback(self, tmp_path):
        # The degraded path must stay observable: every in-parent rerun
        # beats a "[degraded-serial]" line with aggregate progress.
        log = tmp_path / "hb.log"
        obs = ObsContext(heartbeat=Heartbeat(path=log))
        outcome = mini_sweep(jobs=2, policy_wrapper=lambda p: p, obs=obs)
        assert outcome.degraded
        text = log.read_text(encoding="utf-8")
        n_jobs = len(WORKLOADS) * len(DESIGNS)
        assert text.count("[degraded-serial]") == n_jobs
        # progress counters keep aggregating across the fallback
        assert f"({n_jobs}/{n_jobs})" in text
        assert obs.heartbeat.beats >= n_jobs

    def test_degraded_phase_timings_fold_into_parent(self):
        # Serial-fallback jobs run in the parent process, but their
        # timings must land under the same span names the worker path
        # reports, so wall-time attribution stays whole.
        obs = ObsContext(spans=SpanTracker(seed=1))
        outcome = mini_sweep(jobs=2, policy_wrapper=lambda p: p, obs=obs)
        assert outcome.degraded
        phases = phase_stats(obs.spans.spans())
        for w in WORKLOADS:
            assert any(p.startswith("capture.") and w in p for p in phases)
        replay = [
            p for p in phases
            if any(p.startswith(f"replay.{w}.") for w in WORKLOADS)
        ]
        assert len(replay) == len(WORKLOADS) * len(DESIGNS)
        assert all(stats["total"] >= 0.0 for stats in phases.values())

    def test_failed_property_empty_on_success(self):
        assert ParallelSweepOutcome().failed == []


class TestSweepCli:
    def test_cli_runs_and_reports(self, capsys, tmp_path):
        json_path = tmp_path / "out.json"
        rc = run_sweep_cli(
            [
                "--workloads", "gcc",
                "--instructions", "400",
                "--jobs", "2",
                "--json", str(json_path),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "gcc" in out and "SA-4h-S" in out
        payload = json.loads(json_path.read_text(encoding="utf-8"))
        assert all(v["status"] == "parallel" for v in payload.values())

    def test_cli_checkpoint_resume(self, capsys, tmp_path):
        ck = tmp_path / "ck.json"
        args = [
            "--workloads", "gcc", "--instructions", "400",
            "--jobs", "1", "--checkpoint", str(ck),
        ]
        assert run_sweep_cli(args) == 0
        capsys.readouterr()
        assert run_sweep_cli(args) == 0
        assert "restored" in capsys.readouterr().out

    def test_cli_progress_log(self, capsys, tmp_path):
        log = tmp_path / "progress.log"
        rc = run_sweep_cli(
            [
                "--workloads", "gcc", "--instructions", "400",
                "--jobs", "1", "--progress-log", str(log),
            ]
        )
        assert rc == 0
        assert "captured L2 stream" in log.read_text(encoding="utf-8")


@pytest.mark.parametrize("jobs", [1, 2])
def test_timeout_option_accepted(jobs):
    outcome = mini_sweep(jobs=jobs, timeout=300.0)
    assert not outcome.failed


@pytest.mark.parametrize("jobs", [1, 2])
def test_design_sweeps_fail_loud_at_any_jobs(jobs):
    # A sweep with holes is never returned: every failed job is named.
    kw = dict(policies=("lru", "no-such-policy"), scale=SCALE, jobs=jobs)
    for sweep, names in (
        (lambda: run_design_sweep("gcc", DESIGNS, **kw), ("gcc",)),
        (lambda: collect_design_sweeps(WORKLOADS, DESIGNS, **kw), WORKLOADS),
    ):
        with pytest.raises(RuntimeError) as failure:
            sweep()
        message = str(failure.value)
        for key in (f"{w}|{d.label()}" for w in names for d in DESIGNS):
            assert f"{key}|no-such-policy: ValueError" in message
            assert f"{key}|lru" not in message
