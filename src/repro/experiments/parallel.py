"""Parallel sweep engine: one roster driver, process-pool replay,
deterministic merge.

The paper's LLC evaluation (Section VI) is a large outer product —
72 workloads x 6 designs x multiple policies — of *independent*,
deterministic replay jobs, so the pool only has to map jobs to workers.

:func:`run_roster` is the one loop that runs such a roster (restore,
run in-process or in a pool, mark failures, checkpoint — its docstring
is the contract). The design sweep here supplies a worker and a commit.

:func:`run_parallel_sweeps` is the sweep's side, at every ``jobs``:

1. **Capture once.** The parent captures each workload's stream and
   ships the :class:`~repro.sim.cmp.CapturedTrace` to workers.
2. **Jobs carry no seed.** Every random choice in a replay is fixed by
   the captured stream and the design's config, so a job replays
   identically whichever process runs it.
3. **Merge deterministically.** A worker replays under a *private*
   :class:`~repro.obs.ObsContext` and returns ``(result, metrics
   snapshot)``; the commit folds the snapshot into the parent registry
   (:meth:`~repro.obs.MetricsRegistry.merge_snapshot`: additive, order
   independent), so results and metrics are identical at any ``jobs``.
4. **Parent-side job spans.** The parent's ``sweep`` span gets one
   ``job.<scope>`` child per job that ran: opened around the replay at
   ``jobs == 1``, recorded from submit to result otherwise. Workers
   record no spans.

The checkpoint is one JSON file rewritten atomically after every
finished job; a fingerprint of the roster, scale, seed and engine makes
a stale one ignored rather than resurrected. ``run_design_sweep`` /
``collect_design_sweeps`` (:mod:`repro.experiments.runner`) raise on a
failed job instead of returning a sweep with holes.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

from repro.experiments.runner import ExperimentScale, SweepResult
from repro.obs import NULL_SPANS, Heartbeat, ObsContext, sanitize_component
from repro.sim import CMPConfig, CMPResult, L2DesignConfig, TraceDrivenRunner
from repro.sim.cmp import CapturedTrace
from repro.workloads import get_workload

#: checkpoint schema version (bump on incompatible change)
CHECKPOINT_VERSION = 1


def default_jobs() -> int:
    """Worker count matching the CPUs this process may run on."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # non-Linux
        return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class SweepJob:
    """One (workload, design, policy) replay unit."""

    workload: str
    design: L2DesignConfig
    policy: str

    @property
    def key(self) -> str:
        """Stable identity used for checkpointing and result lookup."""
        return f"{self.workload}|{self.design.label()}|{self.policy}"

    def scope(self, include_workload: bool) -> str:
        """Metric scope for this job's registry subtree."""
        design_part = f"{sanitize_component(self.design.label())}.{self.policy}"
        if not include_workload:
            return design_part
        return f"{sanitize_component(self.workload)}.{design_part}"


@dataclass
class ParallelSweepOutcome:
    """Everything a sweep produced."""

    #: workload name -> SweepResult (same shape as run_design_sweep's)
    sweeps: dict = field(default_factory=dict)
    #: job key -> error, for the jobs that produced no result
    failed: dict = field(default_factory=dict)
    #: jobs restored from the checkpoint instead of recomputed
    restored: int = 0


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def _execute_job(
    job: SweepJob, cfg: CMPConfig, captured: CapturedTrace, policy_wrapper,
    scope: str, obs: Optional[ObsContext],
) -> CMPResult:
    """Replay one job, its metrics under ``scope``. Shared verbatim by
    workers and the in-process path, which is what makes the two
    bit-identical."""
    runner = TraceDrivenRunner.from_captured(cfg, captured)
    design_cfg = cfg.with_design(replace(job.design, policy=job.policy))
    return runner.replay(
        design_cfg,
        policy_wrapper=policy_wrapper,
        obs=obs.scoped(scope) if obs is not None else None,
    )


def _replay_worker(
    job: SweepJob, cfg: CMPConfig, captured: CapturedTrace, policy_wrapper,
    scope: str,
) -> tuple[CMPResult, dict]:
    """Process-pool entry point: replay under a private ObsContext.

    Returns ``(result, metrics snapshot)``; the parent merges the
    snapshot into its own registry.
    """
    obs = ObsContext()
    result = _execute_job(job, cfg, captured, policy_wrapper, scope, obs)
    return result, obs.metrics.snapshot()


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------


def _sweep_fingerprint(
    cfg: CMPConfig, scale: ExperimentScale, jobs: Sequence[SweepJob]
) -> dict:
    """Identity of a sweep: same fingerprint == checkpoint is resumable.

    The engine is part of the identity: both engines are bit-identical
    *when supported*, but a turbo run silently falls back per-cache for
    unsupported configurations, so resuming a reference checkpoint
    under ``--engine turbo`` (or vice versa) would mix results whose
    provenance can no longer be told apart.
    """
    return {
        "version": CHECKPOINT_VERSION,
        "seed": scale.seed,
        "instructions_per_core": scale.instructions_per_core,
        "num_cores": cfg.num_cores,
        "l2_blocks": cfg.l2_blocks,
        "l2_banks": cfg.l2_banks,
        "engine": cfg.engine,
        "jobs": sorted(j.key for j in jobs),
    }


class SweepCheckpoint:
    """Append-as-you-go JSON checkpoint for an interruptible sweep.

    One file, rewritten atomically (temp + rename) after every finished
    job: {"fingerprint": ..., "results": {job key: {"result",
    "metrics"}}}. ``load`` ignores files whose fingerprint does not
    match the current sweep, so changing the roster, scale or seed never
    resurrects stale results, and files that are not of this shape.
    """

    def __init__(self, path, fingerprint: dict) -> None:
        self.path = Path(path)
        self.fingerprint = fingerprint
        self._results: dict[str, dict] = {}

    def load(self) -> dict[str, dict]:
        """Restore finished jobs (empty dict when absent/stale/corrupt)."""
        try:
            with open(self.path, "r", encoding="utf-8") as f:
                data = json.load(f)
        except (OSError, json.JSONDecodeError):
            return {}
        if not isinstance(data, dict) or data.get("fingerprint") != self.fingerprint:
            return {}
        results = data.get("results", {})
        if not isinstance(results, dict) or not all(
            isinstance(entry, dict) for entry in results.values()
        ):
            return {}
        self._results = results
        return dict(results)

    def record(
        self, key: str, result: CMPResult, metrics: Optional[dict] = None
    ) -> None:
        """Persist one finished job (atomic rewrite)."""
        self._results[key] = {"result": result.to_dict(), "metrics": metrics or {}}
        payload = {"fingerprint": self.fingerprint, "results": self._results}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(self.path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(payload, f)
        os.replace(tmp, self.path)


# ---------------------------------------------------------------------------
# The roster driver
# ---------------------------------------------------------------------------


def _submit_or_fail(pool, submit: Callable, item) -> Future:
    """``submit(pool, item)``; a refused submission (a worker was killed
    from outside while the roster was still being submitted) becomes a
    failed future, so it reaches the caller through the one failure
    path."""
    try:
        return submit(pool, item)
    except Exception as exc:
        future: Future = Future()
        future.set_exception(exc)
        return future


def run_roster(
    label: str,
    roster: Sequence,
    *,
    jobs: Optional[int],
    checkpoint: Optional[str],
    fingerprint: dict,
    heartbeat: Heartbeat,
    decode: Callable,
    local: Callable,
    submit: Callable,
    commit: Callable,
    fail: Callable,
    prepare: Optional[Callable] = None,
) -> int:
    """Run every item of ``roster`` once; return how many were restored.

    The one restore -> run -> checkpoint loop behind the design sweep.
    Items need a stable ``.key``.
    ``checkpoint`` is the path of a :class:`SweepCheckpoint` (None: keep
    none), valid for rosters of the same ``fingerprint``. A *payload* is
    whatever a job produces; the driver never looks inside one.

    ``decode(entry)``
        Payload of a finished job restored from its checkpoint entry.
    ``prepare(todo)``
        Runs once after restore, with the items still to run.
    ``local(item)``
        Run one item in this process; returns its payload.
    ``submit(pool, item)``
        Submit one item to the pool; returns the payload's future.
    ``commit(item, payload)``
        Fold a finished or restored item into the caller's outcome;
        returns ``(result, metrics)`` for the checkpoint record.
    ``fail(item, error)``
        Mark an item that produced no payload; the roster continues.

    ``jobs <= 1`` (or a single item to run) stays in-process. Otherwise
    every item is submitted up front, before any worker starts a job,
    and joined in roster order, so
    commits arrive in roster order at any worker count. Whatever a job
    raises — its own exception, a pickling error, ``BrokenProcessPool``
    after a worker died — goes to ``fail``: a job is never resubmitted
    or rerun in this process, and a rerun of the roster with the same
    checkpoint computes only what did not finish.
    """
    n_jobs = jobs if jobs is not None else default_jobs()
    total = len(roster)
    ckpt = SweepCheckpoint(checkpoint, fingerprint) if checkpoint else None
    restored = ckpt.load() if ckpt is not None else {}
    todo = []
    for item in roster:
        entry = restored.get(item.key)
        if entry is None:
            todo.append(item)
        else:
            commit(item, decode(entry))
    n_restored = done = total - len(todo)
    if done:
        heartbeat.beat(
            f"{label}: restored {done} from checkpoint", done=done, total=total
        )
    if prepare is not None:
        prepare(todo)
    mode = "serial" if n_jobs <= 1 or len(todo) <= 1 else "parallel"

    def finish(item, run: Callable, *args) -> None:
        nonlocal done
        try:
            payload = run(*args)
        except Exception as exc:  # mark and continue: the roster finishes
            fail(item, f"{type(exc).__name__}: {exc}")
            note = "failed"
        else:
            result, metrics = commit(item, payload)
            if ckpt is not None:
                ckpt.record(item.key, result, metrics)
            note = mode
        done += 1
        heartbeat.beat(f"{label}: {item.key} [{note}]", done=done, total=total)

    if mode == "serial":
        for item in todo:
            finish(item, local, item)
        return n_restored
    # Workers take no job until every item is submitted. A job that kills
    # its worker while submit() runs can otherwise orphan a future: on
    # Python 3.11 the pool fails its pending futures without holding the
    # submit lock, so an item submitted during that sweep never resolves
    # and its result() waits forever. The gate is a semaphore with one
    # permit per worker, not an Event: a worker killed while waiting on
    # an Event's condition makes set() block for good.
    gate = multiprocessing.Semaphore(0)
    with ProcessPoolExecutor(max_workers=n_jobs, initializer=gate.acquire) as pool:
        try:
            futures = [_submit_or_fail(pool, submit, item) for item in todo]
        finally:
            for _ in range(n_jobs):
                gate.release()
        for item, future in zip(todo, futures):
            finish(item, future.result)
    return n_restored


# ---------------------------------------------------------------------------
# The sweep
# ---------------------------------------------------------------------------


def run_parallel_sweeps(
    workloads: Optional[Iterable[str]] = None,
    designs: Iterable[L2DesignConfig] = (),
    policies: Iterable[str] = ("lru",),
    scale: ExperimentScale = ExperimentScale(),
    cfg: Optional[CMPConfig] = None,
    jobs: Optional[int] = None,
    checkpoint: Optional[str] = None,
    obs: Optional[ObsContext] = None,
    policy_wrapper=None,
) -> ParallelSweepOutcome:
    """Run a (workload x design x policy) sweep across worker processes.

    Parameters
    ----------
    workloads:
        Workload roster (default: ``scale.workload_names()``).
    jobs:
        Worker process count. ``1`` runs everything in-process (no pool);
        ``None`` uses the machine's available CPUs. Results are
        bit-identical either way.
    checkpoint:
        Path of a JSON checkpoint. Finished jobs found there (from a
        matching interrupted sweep) are restored, not recomputed.
    obs:
        Parent observability context. Each job's metrics land under its
        scope — ``<design>.<policy>``, prefixed with the workload when
        the roster has more than one — at any ``jobs``; with an enabled
        span tracker, the ``sweep`` root gets one ``job.<scope>`` span
        per job that ran, and its heartbeat receives progress
        aggregated across all workers. Without one, a heartbeat is
        still honoured via the ``ZCACHE_PROGRESS_LOG`` environment
        variable.

    A job that raises, or whose worker dies, is named in
    ``outcome.failed`` and leaves no result; the checkpoint keeps every
    job that finished.
    """
    cfg = cfg or CMPConfig()
    designs = list(designs)
    policies = list(policies)
    names = list(workloads) if workloads is not None else scale.workload_names()
    n_jobs = jobs if jobs is not None else default_jobs()
    heartbeat = obs.heartbeat if obs is not None else Heartbeat.from_env()
    spans = obs.spans if obs is not None else NULL_SPANS

    all_jobs = [
        SweepJob(w, d, p)
        for w in names
        for d in designs
        for p in policies
    ]
    scopes = {job.key: job.scope(len(names) > 1) for job in all_jobs}
    outcome = ParallelSweepOutcome(
        sweeps={w: SweepResult(workload=w) for w in names}
    )
    captures: dict[str, CapturedTrace] = {}
    submitted_at: dict[str, float] = {}

    def capture(todo: list) -> None:
        """Once per workload still to run, in the parent."""
        for w in names:
            if not any(job.workload == w for job in todo):
                continue
            runner = TraceDrivenRunner(
                cfg, get_workload(w),
                instructions_per_core=scale.instructions_per_core,
                seed=scale.seed,
            )
            with spans.span(f"capture.{sanitize_component(w)}", workload=w):
                captures[w] = runner.capture()
            heartbeat.beat(f"sweep: {w}: captured L2 stream")

    def local(job: SweepJob) -> tuple:
        with spans.span(f"job.{scopes[job.key]}", key=job.key):
            result = _execute_job(
                job, cfg, captures[job.workload], policy_wrapper,
                scopes[job.key], obs,
            )
        return result, None

    def submit(pool, job: SweepJob) -> Future:
        submitted_at[job.key] = spans.now()
        return pool.submit(
            _replay_worker, job, cfg, captures[job.workload], policy_wrapper,
            scopes[job.key],
        )

    def end_job_span(job: SweepJob) -> None:
        """A pooled job's span, from submit to result (or failure)."""
        start = submitted_at.pop(job.key, None)
        if start is not None:
            spans.record_span(
                f"job.{scopes[job.key]}", start=start, end=spans.now(),
                key=job.key,
            )

    def commit(job: SweepJob, payload) -> tuple:
        """Fold one finished job into the outcome and the registry."""
        end_job_span(job)
        result, snapshot = payload
        outcome.sweeps[job.workload].results[
            (job.design.label(), job.policy)
        ] = result
        if obs is not None and snapshot:
            obs.metrics.merge_snapshot(snapshot)
        return result, snapshot

    def fail(job: SweepJob, error: str) -> None:
        end_job_span(job)
        outcome.failed[job.key] = error

    with spans.span("sweep", total_jobs=len(all_jobs), workers=n_jobs):
        outcome.restored = run_roster(
            "sweep",
            all_jobs,
            jobs=n_jobs,
            checkpoint=checkpoint,
            fingerprint=_sweep_fingerprint(cfg, scale, all_jobs),
            heartbeat=heartbeat,
            decode=lambda entry: (
                CMPResult.from_dict(entry["result"]), entry.get("metrics")
            ),
            prepare=capture,
            local=local,
            submit=submit,
            commit=commit,
            fail=fail,
        )
        spans.set_attr(restored=outcome.restored)
    return outcome


# ---------------------------------------------------------------------------
# CLI: zcache-repro sweep
# ---------------------------------------------------------------------------


def run_sweep_cli(argv: list) -> int:
    """``zcache-repro sweep``: the parallel design sweep from the shell."""
    import argparse

    from repro.experiments.runner import DESIGNS_FIG4

    parser = argparse.ArgumentParser(
        prog="zcache-repro sweep",
        description="Run a (workload x design x policy) replay sweep "
        "across worker processes with deterministic merge.",
    )
    add = parser.add_argument
    add("--jobs", type=int, default=None,
        help="worker processes (default: available CPUs; 1 = serial)")
    add("--workloads", type=str, default=None,
        help="comma-separated roster subset (default: all 72)")
    add("--policies", type=str, default="lru",
        help="comma-separated replacement policies (default: lru)")
    add("--instructions", type=int, default=6_000)
    add("--seed", type=int, default=1)
    add("--engine", choices=("reference", "turbo"), default="reference",
        help="bank access engine: 'turbo' runs the ZTurbo vectorized "
        "kernels (bit-identical; unsupported policies fall back)")
    add("--checkpoint", type=str, default=None, metavar="PATH",
        help="JSON checkpoint: resume an interrupted sweep from here")
    add("--progress-log", type=str, default=None, metavar="PATH",
        help="append heartbeat progress lines to this file")
    args = parser.parse_args(argv)

    workloads = args.workloads.split(",") if args.workloads else None
    scale = ExperimentScale(
        instructions_per_core=args.instructions,
        workloads=tuple(workloads) if workloads else None,
        seed=args.seed,
    )
    heartbeat = (
        Heartbeat(path=args.progress_log) if args.progress_log
        else Heartbeat.from_env()
    )
    obs = ObsContext(heartbeat=heartbeat)
    outcome = run_parallel_sweeps(
        workloads=workloads,
        designs=DESIGNS_FIG4,
        policies=tuple(args.policies.split(",")),
        scale=scale,
        cfg=CMPConfig(engine=args.engine),
        jobs=args.jobs,
        checkpoint=args.checkpoint,
        obs=obs,
    )

    finished = sum(len(sweep.results) for sweep in outcome.sweeps.values())
    print(
        f"sweep: {finished + len(outcome.failed)} jobs "
        f"({outcome.restored} restored, {len(outcome.failed)} failed)"
    )
    header = f"{'workload':16s} {'design':10s} {'policy':12s} " \
             f"{'l2_mpki':>8s} {'ipc':>7s} {'cycles':>10s}"
    print(header)
    for w in sorted(outcome.sweeps):
        sweep = outcome.sweeps[w]
        for (design, policy), res in sorted(sweep.results.items()):
            print(
                f"{w:16s} {design:10s} {policy:12s} "
                f"{res.l2_mpki:8.2f} {res.aggregate_ipc:7.3f} "
                f"{res.total_cycles:10d}"
            )
    for key, error in outcome.failed.items():
        print(f"FAILED {key}: {error}")
    return 1 if outcome.failed else 0
