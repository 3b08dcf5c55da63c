"""Contract of the roster driver (repro.experiments.parallel.run_roster).

One set of cases, run two ways: a toy roster straight through
``run_roster`` (no simulator), and its caller, ``run_parallel_sweeps``.
Failures are scripted per job key and consumed one per call, in
whichever process runs the job: plan and call log live in a directory
named by an environment variable, which forked workers inherit.
"""

import json
import os
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import quote

import pytest

from repro.experiments import parallel
from repro.experiments.parallel import run_roster
from repro.experiments.runner import ExperimentScale
from repro.obs import NULL_HEARTBEAT
from repro.sim import L2DesignConfig

PLAN_ENV = "ZCACHE_TEST_ROSTER_PLAN"


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
    """What a driven roster looked like from outside, caller-neutral."""

    committed: list  #: keys, in commit order
    failed: dict = field(default_factory=dict)  #: key -> error
    restored: int = 0


# -- the toy roster: run_roster itself, nothing else --------------------------


@dataclass(frozen=True)
class ToyItem:
    key: str


@dataclass
class ToyResult:
    value: str

    def to_dict(self):
        return {"value": self.value}


def toy_worker(item):
    scripted_call(item.key, item)
    return item.key.upper()


TOY_ROSTER = [ToyItem(f"item-{i}") for i in range(4)]


def run_toy(jobs, checkpoint=None, stale=False):
    run = Run(committed=[])

    def commit(item, payload):
        assert payload == item.key.upper()
        run.committed.append(item.key)
        return ToyResult(payload), None

    run.restored = run_roster(
        "toy",
        TOY_ROSTER,
        jobs=jobs,
        checkpoint=checkpoint,
        fingerprint={"stamp": 2 if stale else 1},
        heartbeat=NULL_HEARTBEAT,
        decode=lambda entry: entry["result"]["value"],
        local=toy_worker,
        submit=lambda pool, item: pool.submit(toy_worker, item),
        commit=commit,
        fail=lambda item, error: run.failed.update({item.key: error}),
    )
    return run


# -- the sweep: four replays of one tiny capture ------------------------------

SWEEP_DESIGNS = (
    L2DesignConfig(kind="sa", ways=4, hash_kind="h3"),
    L2DesignConfig(kind="z", ways=4, levels=2),
)
SWEEP_POLICIES = ("lru", "fifo")


def run_sweep(jobs, checkpoint=None, stale=False):
    outcome = parallel.run_parallel_sweeps(
        workloads=("gcc",),
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
    f"gcc|{d.label()}|{p}" for d in SWEEP_DESIGNS for p in SWEEP_POLICIES
]
HARNESSES = {
    "toy": (run_toy, [item.key for item in TOY_ROSTER]),
    "sweep": (run_sweep, SWEEP_KEYS),
}


@pytest.fixture(params=sorted(HARNESSES))
def harness(request, tmp_path, monkeypatch):
    """``(run, keys, script)``: ``script(plan)`` arms per-key failures."""
    root = tmp_path / "plan"
    root.mkdir()
    monkeypatch.setenv(PLAN_ENV, str(root))

    def script(plan):
        (root / "plan.json").write_text(json.dumps(plan), encoding="utf-8")

    script({})
    # The sweep runs a job through one module-level function, in the
    # workers and in the parent alike; script it there.
    real_execute = parallel._execute_job

    def execute(job, *args):
        scripted_call(job.key, job)
        return real_execute(job, *args)

    monkeypatch.setattr(parallel, "_execute_job", execute)
    run, keys = HARNESSES[request.param]
    return run, keys, script


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
    ck = str(tmp_path / "ck.json")
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


def test_a_pool_that_breaks_during_submission_fails_the_rest_by_name():
    # A worker killed from outside while the roster is still being
    # submitted: the items already in the pool fail, and submit() itself
    # raises BrokenProcessPool for the rest. The kill waits until the
    # pool has seen it (the private ``_broken`` flag), so no submit()
    # runs while the pool is failing its pending futures.
    roster = [ToyItem(f"item-{i}") for i in range(40)]
    committed, failed = [], {}

    def submit(pool, item):
        if item.key == "item-20":
            os.kill(next(iter(pool._processes)), signal.SIGKILL)
            while not pool._broken:
                time.sleep(0.001)
        return pool.submit(str.upper, item.key)

    def commit(item, payload):
        committed.append(item.key)
        return ToyResult(payload), None

    run_roster(
        "toy",
        roster,
        jobs=2,
        checkpoint=None,
        fingerprint={},
        heartbeat=NULL_HEARTBEAT,
        decode=None,
        local=toy_worker,
        submit=submit,
        commit=commit,
        fail=lambda item, error: failed.update({item.key: error}),
    )
    assert not committed  # no worker started a job before the kill
    assert list(failed) == [item.key for item in roster]
    assert all(e.startswith("BrokenProcessPool") for e in failed.values())


def test_a_rerun_restores_what_committed_and_computes_the_rest(
    harness, tmp_path
):
    run, keys, script = harness
    ck = str(tmp_path / "ck.json")
    script({keys[1]: ["raise"]})
    first = run(2, checkpoint=ck)
    assert list(first.failed) == [keys[1]]
    second = run(2, checkpoint=ck)
    assert second.restored == len(keys) - 1
    assert not second.failed
    assert second.committed == [keys[0], *keys[2:], keys[1]]
    assert len(calls(keys[1])) == 2
    assert all(len(calls(key)) == 1 for key in keys if key != keys[1])
