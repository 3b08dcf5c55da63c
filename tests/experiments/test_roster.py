"""Contract of the sweep loop (repro.experiments.parallel.run_parallel_sweeps).

Four replays of one tiny capture, with failures scripted per job key
and consumed one per call, in whichever process runs the job: plan and
call log live in a directory named by an environment variable, which
forked workers inherit.
"""

import json
import os
import signal
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import quote

import pytest

from repro.experiments import parallel
from repro.experiments.runner import ExperimentScale
from repro.sim import L2DesignConfig, TraceDrivenRunner

PLAN_ENV = "ZCACHE_TEST_ROSTER_PLAN"
WORKLOAD = "gcc"


def _call_files(key):
    """The call-log files of ``key``'s job so far, in call order."""
    root = Path(os.environ[PLAN_ENV])
    stem = quote(key, safe="")
    n = len(list(root.glob(f"{stem}.call*")))
    return [root / f"{stem}.call{i}" for i in range(n + 1)]


def scripted_call(key, item):
    """Log this call of ``key``'s job, then act out its scripted step."""
    *earlier, mine = _call_files(key)
    mine.write_text(repr(item), encoding="utf-8")
    plan = json.loads(
        (mine.parent / "plan.json").read_text(encoding="utf-8")
    )
    step = plan.get(key, [])[len(earlier) : len(earlier) + 1]
    if step == ["raise"]:
        raise RuntimeError(f"scripted failure {len(earlier) + 1} of {key}")
    if step == ["die"]:
        os._exit(17)  # a killed worker: no exception, no cleanup


def calls(key):
    """What each call of ``key``'s job received, in call order."""
    return [f.read_text(encoding="utf-8") for f in _call_files(key)[:-1]]


@dataclass
class Run:
    """What a sweep looked like from outside."""

    committed: list  #: keys, in commit order
    failed: dict = field(default_factory=dict)  #: key -> error
    restored: int = 0


SWEEP_DESIGNS = (
    L2DesignConfig(kind="sa", ways=4, hash_kind="h3"),
    L2DesignConfig(kind="z", ways=4, levels=2),
)
SWEEP_POLICIES = ("lru", "fifo")


def run_sweep(jobs, checkpoint=None, stale=False):
    outcome = parallel.run_parallel_sweeps(
        workloads=(WORKLOAD,),
        designs=SWEEP_DESIGNS,
        policies=SWEEP_POLICIES,
        scale=ExperimentScale(
            instructions_per_core=300, seed=6 if stale else 5
        ),
        jobs=jobs,
        checkpoint=checkpoint,
    )
    return Run(
        committed=[
            f"{w}|{design}|{policy}"
            for w, sweep in outcome.sweeps.items()
            for design, policy in sweep.results
        ],
        failed=outcome.failed,
        restored=outcome.restored,
    )


SWEEP_KEYS = [
    f"{WORKLOAD}|{d.label()}|{p}" for d in SWEEP_DESIGNS for p in SWEEP_POLICIES
]


@pytest.fixture(params=["sweep"])
def harness(request, tmp_path, monkeypatch):
    """``(run, keys, script)``: ``script(plan)`` arms per-key failures."""
    root = tmp_path / "plan"
    root.mkdir()
    monkeypatch.setenv(PLAN_ENV, str(root))

    def script(plan):
        (root / "plan.json").write_text(json.dumps(plan), encoding="utf-8")

    script({})
    # Every job replays through TraceDrivenRunner.replay, in the workers
    # (forked after this patch) and in the parent alike; script it there.
    real_replay = TraceDrivenRunner.replay

    def replay(self, design_cfg, *args, **kwargs):
        design = design_cfg.l2_design
        key = f"{WORKLOAD}|{design.label()}|{design.policy}"
        scripted_call(key, design)
        return real_replay(self, design_cfg, *args, **kwargs)

    monkeypatch.setattr(TraceDrivenRunner, "replay", replay)
    return run_sweep, SWEEP_KEYS, script


def test_clean_run_commits_every_item_once_in_roster_order(harness):
    run, keys, _ = harness
    for jobs in (1, 2):
        result = run(jobs)
        assert result.committed == keys
        assert not result.failed
    assert all(len(calls(key)) == 2 for key in keys)


def test_restores_a_matching_checkpoint_and_ignores_a_stale_one(
    harness, tmp_path
):
    run, keys, _ = harness
    ck = str(tmp_path / "ck")
    assert run(1, checkpoint=ck).restored == 0
    again = run(2, checkpoint=ck)
    assert again.restored == len(keys)
    assert again.committed == keys
    assert all(len(calls(key)) == 1 for key in keys)  # nothing re-ran
    stale = run(1, checkpoint=ck, stale=True)
    assert stale.restored == 0
    assert stale.committed == keys


@pytest.mark.parametrize("jobs", [1, 2])
def test_one_raise_marks_only_that_key_failed(harness, jobs):
    run, keys, script = harness
    script({keys[1]: ["raise"]})
    result = run(jobs)
    assert list(result.failed) == [keys[1]]
    assert "RuntimeError: scripted failure 1" in result.failed[keys[1]]
    assert result.committed == [keys[0], *keys[2:]]  # still in roster order
    assert all(len(calls(key)) == 1 for key in keys)  # never rerun


def test_a_dead_worker_fails_every_uncommitted_job(harness):
    run, keys, script = harness
    script({keys[0]: ["die"]})
    result = run(2)
    assert keys[0] in result.failed
    assert set(result.committed) | set(result.failed) == set(keys)
    assert not set(result.committed) & set(result.failed)
    assert all(
        error.startswith("BrokenProcessPool") for error in result.failed.values()
    )
    assert all(len(calls(key)) <= 1 for key in keys)  # nothing reran


class KillAtThirdSubmit(ProcessPoolExecutor):
    """A pool whose third submission first SIGKILLs one of its workers.

    The kill waits until the pool has seen it (the private ``_broken``
    flag), so no submit() runs while the pool is failing its pending
    futures.
    """

    def submit(self, fn, /, *args, **kwargs):
        self.submitted = getattr(self, "submitted", 0) + 1
        if self.submitted == 3:
            os.kill(next(iter(self._processes)), signal.SIGKILL)
            while not self._broken:
                time.sleep(0.001)
        return super().submit(fn, *args, **kwargs)


def test_a_pool_that_breaks_during_submission_fails_the_rest_by_name(
    monkeypatch,
):
    # A worker killed from outside while the roster is still being
    # submitted: the jobs already in the pool fail, and submit() itself
    # raises BrokenProcessPool for the rest.
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", KillAtThirdSubmit)
    result = run_sweep(2)
    assert not result.committed  # no worker started a job before the kill
    assert list(result.failed) == SWEEP_KEYS
    assert all(e.startswith("BrokenProcessPool") for e in result.failed.values())


def test_a_rerun_restores_what_committed_and_computes_the_rest(
    harness, tmp_path
):
    run, keys, script = harness
    ck = str(tmp_path / "ck")
    script({keys[1]: ["raise"]})
    first = run(2, checkpoint=ck)
    assert list(first.failed) == [keys[1]]
    second = run(2, checkpoint=ck)
    assert second.restored == len(keys) - 1
    assert not second.failed
    assert second.committed == [keys[0], *keys[2:], keys[1]]
    assert len(calls(keys[1])) == 2
    assert all(len(calls(key)) == 1 for key in keys if key != keys[1])
