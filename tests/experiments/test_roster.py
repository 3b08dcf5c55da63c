"""Contract of the roster driver (repro.experiments.parallel.run_roster).

One set of cases, run three ways: a toy roster straight through
``run_roster`` (no simulator), and its two callers, ``run_parallel_sweeps``
and ``run_campaign``. Failures are scripted per job key and consumed one
per call, in whichever process runs the job: plan and call log live in a
directory named by an environment variable, which forked workers inherit.
"""

import json
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import SimpleNamespace
from urllib.parse import quote

import pytest

from repro.experiments import parallel
from repro.experiments.parallel import run_roster
from repro.experiments.runner import ExperimentScale
from repro.faults import campaign
from repro.faults.campaign import CampaignConfig, build_cases
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
    degraded: bool = False
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
    outcome = SimpleNamespace(restored=0, degraded=False)
    run = Run(committed=[])

    def commit(item, status, attempts, payload):
        assert payload == item.key.upper()
        run.committed.append(item.key)
        return ToyResult(payload), None

    run_roster(
        "toy",
        TOY_ROSTER,
        outcome,
        jobs=jobs,
        checkpoint=checkpoint,
        fingerprint={"stamp": 2 if stale else 1},
        heartbeat=NULL_HEARTBEAT,
        decode=lambda entry: entry["result"]["value"],
        local=lambda item, attempts: toy_worker(item),
        submit=lambda pool, item, attempt: pool.submit(toy_worker, item),
        commit=commit,
        fail=lambda item, attempts, error: run.failed.update({item.key: error}),
    )
    run.degraded, run.restored = outcome.degraded, outcome.restored
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
        committed=[k for k, o in outcome.outcomes.items() if o.result],
        failed={o.key: o.error for o in outcome.failed},
        degraded=outcome.degraded,
        restored=outcome.restored,
    )


# -- the campaign: four cases of a tiny configuration -------------------------

CAMPAIGN = CampaignConfig(
    base_seed=1, accesses=200, lines_per_way=16, triggers=(0.5,), variants=1
)
CAMPAIGN_CASES = build_cases(CAMPAIGN)[:4]


def run_faults(jobs, checkpoint=None, stale=False):
    outcome = campaign.run_campaign(
        replace(CAMPAIGN, base_seed=2 if stale else 1),
        jobs=jobs, checkpoint=checkpoint, cases=CAMPAIGN_CASES,
    )
    return Run(
        committed=list(outcome.outcomes),
        failed=dict(outcome.errors),
        degraded=outcome.degraded,
        restored=outcome.restored,
    )


SWEEP_KEYS = [
    f"gcc|{d.label()}|{p}" for d in SWEEP_DESIGNS for p in SWEEP_POLICIES
]
HARNESSES = {
    "toy": (run_toy, [item.key for item in TOY_ROSTER]),
    "sweep": (run_sweep, SWEEP_KEYS),
    "campaign": (run_faults, [case.key for case in CAMPAIGN_CASES]),
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
    # Both callers run a job through one module-level function, in the
    # workers and in the parent alike; script it there.
    real_execute, real_case = parallel._execute_job, campaign.run_case

    def execute(job, *args):
        scripted_call(job.key, job)
        return real_execute(job, *args)

    def case(fault_case):
        scripted_call(fault_case.key, fault_case)
        return real_case(fault_case)

    monkeypatch.setattr(parallel, "_execute_job", execute)
    monkeypatch.setattr(campaign, "run_case", case)
    run, keys = HARNESSES[request.param]
    return run, keys, script


def test_clean_run_commits_every_item_once_in_roster_order(harness):
    run, keys, _ = harness
    for jobs in (1, 2):
        result = run(jobs)
        assert result.committed == keys
        assert not result.failed and not result.degraded
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


def test_one_failure_is_retried_with_the_same_item(harness):
    run, keys, script = harness
    script({keys[1]: ["raise"]})
    result = run(2)
    assert result.committed == keys  # still joined in roster order
    assert not result.failed and not result.degraded
    first, second = calls(keys[1])
    assert first == second


def test_two_failures_finish_in_the_parent_and_mark_degraded(harness):
    run, keys, script = harness
    script({keys[1]: ["raise", "raise"]})
    result = run(2)
    assert result.degraded and not result.failed
    assert result.committed == [keys[0], *keys[2:], keys[1]]
    assert len(calls(keys[1])) == 3


@pytest.mark.parametrize("jobs, failures", [(1, 1), (2, 3)])
def test_failing_in_the_parent_too_is_marked_and_the_roster_continues(
    harness, jobs, failures
):
    run, keys, script = harness
    script({keys[1]: ["raise"] * failures})
    result = run(jobs)
    assert list(result.failed) == [keys[1]]
    assert f"scripted failure {failures}" in result.failed[keys[1]]
    assert result.committed == [keys[0], *keys[2:]]
    assert result.degraded == (jobs > 1)


def test_a_dead_pool_degrades_and_still_completes(harness):
    run, keys, script = harness
    script({keys[0]: ["die"]})
    result = run(2)
    assert result.degraded and not result.failed
    assert sorted(result.committed) == sorted(keys)
    assert len(calls(keys[0])) == 2  # died once, re-ran in the parent
