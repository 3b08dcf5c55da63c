"""Tests for the parallel sweep engine (repro.experiments.parallel)."""

import json
import os
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments import parallel
from repro.experiments.parallel import (
    ParallelSweepOutcome,
    SweepJob,
    default_jobs,
    run_parallel_sweeps,
    run_sweep_cli,
)
from repro.experiments.runner import (
    ExperimentScale,
    collect_design_sweeps,
    run_design_sweep,
)
from repro.obs import Heartbeat, ObsContext, SpanTracker
from repro.sim import CMPConfig, L2DesignConfig, TraceDrivenRunner

WORKLOADS = ("gcc", "canneal")
DESIGNS = (
    L2DesignConfig(kind="sa", ways=4, hash_kind="h3"),
    L2DesignConfig(kind="z", ways=4, levels=2),
)
SCALE = ExperimentScale(instructions_per_core=600, workloads=WORKLOADS, seed=5)


N_JOBS = len(WORKLOADS) * len(DESIGNS)


def mini_sweep(**kw):
    kw.setdefault("workloads", WORKLOADS)
    kw.setdefault("designs", DESIGNS)
    kw.setdefault("scale", SCALE)
    return run_parallel_sweeps(**kw)


def n_results(outcome):
    """How many jobs of a sweep left a result."""
    return sum(len(sweep.results) for sweep in outcome.sweeps.values())


class TestJobIdentity:
    def test_job_key_and_scope(self):
        job = SweepJob("gcc", DESIGNS[1], "lru")
        assert job.key == "gcc|Z4/16-S|lru"
        assert job.scope(include_workload=True) == "gcc.Z4_16-S.lru"
        assert job.scope(include_workload=False) == "Z4_16-S.lru"

    def test_default_jobs_positive(self):
        assert default_jobs() >= 1


class TestDeterministicMerge:
    def test_parallel_matches_serial_bit_for_bit(self):
        serial = mini_sweep(jobs=1)
        parallel = mini_sweep(jobs=2)
        assert set(serial.sweeps) == set(parallel.sweeps)
        for w in serial.sweeps:
            assert serial.sweeps[w].results == parallel.sweeps[w].results
        assert not serial.failed and not parallel.failed
        assert n_results(parallel) == N_JOBS

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
        assert sum(p.startswith("job.") for p in phases) == N_JOBS


def entries(directory):
    """The checkpoint's entry files, by name."""
    return sorted(directory.glob("*.json"))


class TestCheckpoint:
    def test_resume_restores_everything(self, tmp_path):
        # A rerun restores every job, reruns nothing and is bit-identical
        # at any jobs.
        ck = tmp_path / "ck"
        first = mini_sweep(jobs=2, checkpoint=str(ck))
        assert len(entries(ck)) == N_JOBS
        for jobs in (1, 2):
            again = mini_sweep(jobs=jobs, checkpoint=str(ck))
            assert again.restored == n_results(first) == N_JOBS
            for w in first.sweeps:
                assert first.sweeps[w].results == again.sweeps[w].results

    def test_stale_checkpoint_is_ignored(self, tmp_path):
        # A changed seed or instruction count restores nothing.
        ck = tmp_path / "ck"
        mini_sweep(jobs=1, checkpoint=str(ck))
        for seed, instructions in ((6, 600), (5, 700)):
            scale = ExperimentScale(
                instructions_per_core=instructions, workloads=WORKLOADS,
                seed=seed,
            )
            again = mini_sweep(jobs=1, checkpoint=str(ck), scale=scale)
            assert again.restored == 0
        assert len(entries(ck)) == 3 * N_JOBS  # every sweep's entries kept

    def test_engine_change_invalidates_checkpoint(self, tmp_path):
        # The turbo engine silently falls back to reference for designs
        # it cannot vectorize, so an entry written under one engine must
        # never seed a resume under the other: mixed-engine result sets
        # would be unattributable. The engine is part of every key.
        ck = tmp_path / "ck"
        first = mini_sweep(
            jobs=1, checkpoint=str(ck), cfg=CMPConfig(engine="reference")
        )
        assert first.restored == 0
        again = mini_sweep(
            jobs=1, checkpoint=str(ck), cfg=CMPConfig(engine="turbo")
        )
        assert again.restored == 0
        third = mini_sweep(
            jobs=1, checkpoint=str(ck), cfg=CMPConfig(engine="turbo")
        )
        assert third.restored == n_results(again)

    def test_changed_source_restores_nothing(self, tmp_path, monkeypatch):
        ck = tmp_path / "ck"
        mini_sweep(jobs=1, checkpoint=str(ck))
        monkeypatch.setattr(parallel, "_source_digest", lambda: "edited")
        assert mini_sweep(jobs=1, checkpoint=str(ck)).restored == 0

    def test_a_sweep_that_adds_a_design_reuses_the_jobs_done(self, tmp_path):
        ck = tmp_path / "ck"
        mini_sweep(jobs=1, checkpoint=str(ck), designs=DESIGNS[:1])
        wider = mini_sweep(jobs=2, checkpoint=str(ck))
        assert wider.restored == len(WORKLOADS)
        clean = mini_sweep(jobs=1)
        for w in clean.sweeps:
            assert clean.sweeps[w].results == wider.sweeps[w].results

    def test_corrupt_checkpoint_is_ignored(self, tmp_path):
        # A truncated entry (a copy cut short) is recomputed, not fatal.
        ck = tmp_path / "ck"
        full = mini_sweep(jobs=1, checkpoint=str(ck))
        victim = entries(ck)[0]
        victim.write_text(victim.read_text(encoding="utf-8")[:40],
                          encoding="utf-8")
        again = mini_sweep(jobs=1, checkpoint=str(ck))
        assert again.restored == N_JOBS - 1
        for w in full.sweeps:
            assert full.sweeps[w].results == again.sweeps[w].results
        json.loads(victim.read_text(encoding="utf-8"))  # rewritten whole

    @pytest.mark.parametrize(
        "payload",
        [
            [1, 2],
            "checkpoint",
            {"result": {"l2_mpki": 1.0}, "metrics": {}},
            {"result": None, "metrics": 3},
        ],
    )
    def test_checkpoint_of_the_wrong_shape_is_ignored(self, tmp_path, payload):
        # Valid JSON that is not an entry is as unusable as unparsable
        # JSON: every job is recomputed.
        ck = tmp_path / "ck"
        mini_sweep(jobs=1, checkpoint=str(ck))
        for path in entries(ck):
            path.write_text(json.dumps(payload), encoding="utf-8")
        assert mini_sweep(jobs=1, checkpoint=str(ck)).restored == 0

    def test_record_is_atomic_json(self, tmp_path):
        ck = tmp_path / "ck"
        mini_sweep(jobs=1, checkpoint=str(ck))
        assert len(entries(ck)) == N_JOBS
        assert sorted(
            json.loads(path.read_text(encoding="utf-8"))["key"]
            for path in entries(ck)
        ) == sorted(f"{w}|{d.label()}|lru" for w in WORKLOADS for d in DESIGNS)
        assert not list(ck.glob("*.tmp"))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_resumed_sweep_merges_the_same_metrics(self, tmp_path, jobs):
        # An entry keeps the job's metrics snapshot at any jobs, so a
        # resumed sweep's registry equals the uninterrupted sweep's.
        ck = str(tmp_path / "ck")
        whole, resumed = ObsContext(), ObsContext()
        mini_sweep(jobs=jobs, checkpoint=ck, obs=whole)
        assert mini_sweep(jobs=jobs, checkpoint=ck, obs=resumed).restored == N_JOBS
        assert whole.metrics.snapshot()
        assert resumed.metrics.snapshot() == whole.metrics.snapshot()

    def test_checkpoint_refuses_a_policy_wrapper(self, tmp_path):
        with pytest.raises(ValueError, match="policy_wrapper"):
            mini_sweep(
                jobs=1, checkpoint=str(tmp_path / "ck"),
                policy_wrapper=lambda p: p,
            )


REAL_REPLAY = TraceDrivenRunner.replay
TEST_PID = os.getpid()  # forked workers inherit the parent's value


def _crash_worker_once(self, design_cfg, *args, **kwargs):
    """Replay that hard-kills one worker, once.

    Flag and checkpoint paths travel via the environment (workers
    inherit it). The first FIFO job to replay in a worker waits until
    the parent has written a finished job's entry, then dies with
    ``os._exit`` — no exception, no cleanup, exactly a killed worker.
    LRU jobs, and every call once the flag exists (a resumed sweep),
    pass through.
    """
    flag = os.environ["ZCACHE_TEST_CRASH_FLAG"]
    if (
        design_cfg.l2_design.policy == "fifo"
        and os.getpid() != TEST_PID
        and not os.path.exists(flag)
    ):
        checkpoint = Path(os.environ["ZCACHE_TEST_CRASH_CHECKPOINT"])
        deadline = time.monotonic() + 120.0
        while not entries(checkpoint) and time.monotonic() < deadline:
            time.sleep(0.01)
        with open(flag, "w", encoding="utf-8") as f:
            f.write("crashed")
        os._exit(17)
    return REAL_REPLAY(self, design_cfg, *args, **kwargs)


class TestCrashResume:
    def test_worker_crash_checkpoints_then_resumes_bit_identical(
        self, tmp_path, monkeypatch
    ):
        flag = tmp_path / "crash.flag"
        ck = tmp_path / "ck"
        monkeypatch.setenv("ZCACHE_TEST_CRASH_FLAG", str(flag))
        monkeypatch.setenv("ZCACHE_TEST_CRASH_CHECKPOINT", str(ck))
        monkeypatch.setattr(TraceDrivenRunner, "replay", _crash_worker_once)
        kw = dict(policies=("lru", "fifo"), checkpoint=str(ck))
        n_jobs = 2 * N_JOBS
        crashed = mini_sweep(jobs=2, **kw)
        # The worker genuinely died mid-sweep, after the first job's
        # entry was written; every job it took down with it is named,
        # not rerun...
        assert flag.exists()
        assert crashed.failed and n_results(crashed) >= 1
        assert all(
            error.startswith("BrokenProcessPool")
            for error in crashed.failed.values()
        )
        assert n_results(crashed) + len(crashed.failed) == n_jobs
        # ...while the checkpoint keeps exactly what finished.
        keys = {
            json.loads(path.read_text(encoding="utf-8"))["key"]
            for path in entries(ck)
        }
        assert keys.isdisjoint(crashed.failed)
        assert len(keys) == n_results(crashed)

        # A resumed run restores what finished and computes the rest.
        resumed = mini_sweep(jobs=2, **kw)
        assert resumed.restored == n_results(crashed)
        assert not resumed.failed

        # The resume is bit-identical to an undisturbed serial sweep.
        clean = mini_sweep(jobs=1, policies=("lru", "fifo"))
        for w in clean.sweeps:
            assert clean.sweeps[w].results == resumed.sweeps[w].results
            for key, result in crashed.sweeps[w].results.items():
                assert clean.sweeps[w].results[key] == result

    def test_partial_checkpoint_resume_is_bit_identical(self, tmp_path):
        # Simulate the parent dying mid-sweep: keep only half the
        # entries (the state an interrupted run leaves) and resume —
        # restored + recomputed must equal the clean run.
        ck = tmp_path / "ck"
        full = mini_sweep(jobs=1, checkpoint=str(ck))
        kept = entries(ck)[: N_JOBS // 2]
        for path in entries(ck)[N_JOBS // 2 :]:
            path.unlink()

        resumed = mini_sweep(jobs=2, checkpoint=str(ck))
        assert 0 < resumed.restored == len(kept) < N_JOBS
        assert n_results(resumed) == N_JOBS
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
        assert len(outcome.failed) == N_JOBS
        assert all("RuntimeError" in e for e in outcome.failed.values())
        # failed jobs leave no results behind
        assert all(not s.results for s in outcome.sweeps.values())

    def test_unpicklable_job_fails_by_name(self):
        # A lambda cannot cross the process boundary: every job fails
        # with the pickling error, named, and none reruns in the parent.
        outcome = mini_sweep(jobs=2, policy_wrapper=lambda p: p)
        assert sorted(outcome.failed) == sorted(
            f"{w}|{d.label()}|lru" for w in WORKLOADS for d in DESIGNS
        )
        assert all("pickle" in e.lower() for e in outcome.failed.values())
        assert n_results(outcome) == 0

    def test_heartbeat_counts_failed_jobs(self, tmp_path):
        # A failed job still advances the aggregate progress count.
        log = tmp_path / "hb.log"
        obs = ObsContext(heartbeat=Heartbeat(path=log))
        mini_sweep(jobs=2, policy_wrapper=lambda p: p, obs=obs)
        text = log.read_text(encoding="utf-8")
        assert text.count("[failed]") == N_JOBS
        assert f"({N_JOBS}/{N_JOBS})" in text

    @pytest.mark.parametrize(
        "wrapper", [None, lambda p: p], ids=["clean", "unpicklable"]
    )
    def test_job_span_names_match_at_any_jobs(self, wrapper):
        # The parent owns one job.<scope> span per job that ran, whether
        # it ran in-process, in a worker, or failed.
        names = []
        for jobs in (1, 2):
            obs = ObsContext(spans=SpanTracker(seed=1))
            mini_sweep(jobs=jobs, obs=obs, policy_wrapper=wrapper)
            spans = obs.spans.spans()
            (root,) = [s for s in spans if s.name == "sweep"]
            top = sorted(s.name for s in spans if s.parent_id == root.span_id)
            assert {s.process for s in spans} == {"main"}
            names.append(top)
        assert names[0] == names[1]
        jobs_spans = [n for n in names[0] if n.startswith("job.")]
        assert len(jobs_spans) == len(set(jobs_spans)) == N_JOBS
        for w in WORKLOADS:
            assert f"capture.{w}" in names[0]

    def test_designs_that_share_a_label_are_refused(self):
        # Z4/52 three ways: one label, so one result key and one metrics
        # scope. Refused by name before anything is captured.
        z52 = L2DesignConfig(kind="z", ways=4, levels=3)
        designs = (
            z52, replace(z52, candidate_limit=20), replace(z52, hash_kind="mix")
        )
        obs = ObsContext(spans=SpanTracker(seed=1))
        with pytest.raises(ValueError, match=r"gcc\|Z4/52-S\|lru"):
            run_parallel_sweeps(
                workloads=("gcc",), designs=designs, scale=SCALE, obs=obs
            )
        assert not obs.spans.spans()

    def test_in_process_replay_spans_nest_in_their_job(self):
        obs = ObsContext(spans=SpanTracker(seed=1))
        mini_sweep(jobs=1, obs=obs)
        spans = obs.spans.spans()
        jobs = {s.span_id for s in spans if s.name.startswith("job.")}
        nested = [s for s in spans if s.name.startswith("replay.")]
        assert len(nested) == 2 * N_JOBS
        assert {s.parent_id for s in nested} == jobs

    def test_failed_property_empty_on_success(self):
        assert ParallelSweepOutcome().failed == {}
        assert not mini_sweep(jobs=1).failed


class TestSweepCli:
    def test_cli_runs_and_reports(self, capsys):
        rc = run_sweep_cli(
            ["--workloads", "gcc", "--instructions", "400", "--jobs", "2"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("sweep: 6 jobs (0 restored, 0 failed)\n")
        assert "gcc" in out and "SA-4h-S" in out

    def test_cli_checkpoint_resume(self, capsys, tmp_path):
        # The same command run again restores every job and prints the
        # same table.
        args = [
            "--workloads", "gcc", "--instructions", "400",
            "--jobs", "1", "--checkpoint", str(tmp_path / "ck"),
        ]
        assert run_sweep_cli(args) == 0
        first = capsys.readouterr().out.splitlines()
        assert run_sweep_cli(args) == 0
        second = capsys.readouterr().out.splitlines()
        assert first[0] == "sweep: 6 jobs (0 restored, 0 failed)"
        assert second[0] == "sweep: 6 jobs (6 restored, 0 failed)"
        assert second[1:] == first[1:]

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
