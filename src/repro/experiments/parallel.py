"""Parallel sweep engine: one loop, process-pool replay, deterministic
merge, content-keyed resume.

The paper's LLC evaluation (Section VI) is a large outer product —
72 workloads x 6 designs x multiple policies — of *independent*,
deterministic replay jobs, so the pool only has to map jobs to workers.
:func:`run_parallel_sweeps` is the one loop that runs such a roster, at
every ``jobs``:

1. **Restore.** With a checkpoint directory, a job whose entry is there
   is restored, not rerun. An entry is one write-once JSON file named by
   the sha256 of the job's pure inputs (:func:`_entry_name`): workload,
   seed, instructions, the full :class:`~repro.sim.CMPConfig` with the
   job's design and policy, and a digest of this package's sources.
   A changed input simply misses, so resuming is running the same
   command again, and a sweep that adds a design reuses what is done.
2. **Capture once.** The parent captures the stream of each workload
   still to run and ships the :class:`~repro.sim.cmp.CapturedTrace` to
   workers. A job carries no seed: every random choice in a replay is
   fixed by the captured stream and the design's config.
3. **One job path.** :func:`_execute_job` replays under a *private*
   metrics registry and returns ``(result, metrics snapshot)``, in a
   worker or in this process alike; the parent folds the snapshot into
   its registry (:meth:`~repro.obs.MetricsRegistry.merge_snapshot`:
   additive, order independent) and into the job's entry, so results
   and metrics are identical at any ``jobs``, restored or not.
4. **Commit in roster order, name every failure.** Pooled jobs are all
   submitted before any worker starts one and joined in roster order.
   Whatever a job raises — its own exception, a pickling error,
   ``BrokenProcessPool`` after a worker died — is named in
   ``outcome.failed``; nothing is resubmitted or rerun in the parent.
5. **Parent-side job spans.** The ``sweep`` span gets one
   ``job.<scope>`` child per job that ran: opened around the replay in
   this process (its ``replay.build`` / ``replay.stream`` spans nest
   inside), recorded from submit to commit for a pooled job. Workers
   record no spans.

``run_design_sweep`` / ``collect_design_sweeps``
(:mod:`repro.experiments.runner`) raise on a failed job instead of
returning a sweep with holes.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
from collections import Counter
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from functools import cache, partial
from pathlib import Path
from typing import Iterable, Optional

from repro.experiments.runner import ExperimentScale, SweepResult
from repro.obs import NULL_SPANS, Heartbeat, ObsContext, sanitize_component
from repro.sim import CMPConfig, CMPResult, L2DesignConfig, TraceDrivenRunner
from repro.sim.cmp import CapturedTrace
from repro.workloads import get_workload


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
        """Identity of the job's result within one sweep."""
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


def _execute_job(
    cfg: CMPConfig, captured: CapturedTrace, policy_wrapper, scope: str,
    spans=NULL_SPANS,
) -> tuple[CMPResult, dict]:
    """Replay one job (``cfg`` carries its design and policy) under a
    private metrics registry; return ``(result, metrics snapshot)``.

    The one job path: workers and the in-process loop both run it,
    which is what makes the two bit-identical.
    """
    obs = ObsContext(spans=spans)
    runner = TraceDrivenRunner.from_captured(cfg, captured)
    result = runner.replay(
        cfg, policy_wrapper=policy_wrapper, obs=obs.scoped(scope)
    )
    return result, obs.metrics.snapshot()


# ---------------------------------------------------------------------------
# Content-keyed entries
# ---------------------------------------------------------------------------


@cache
def _source_digest() -> str:
    """sha256 over the ``repro`` package's ``.py`` sources."""
    root = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _entry_name(
    workload: str, cfg: CMPConfig, scale: ExperimentScale
) -> str:
    """File name of a job's entry: the sha256 of its pure inputs."""
    inputs = {
        "workload": workload,
        "instructions_per_core": scale.instructions_per_core,
        "seed": scale.seed,
        "config": asdict(cfg),
        "source": _source_digest(),
    }
    blob = json.dumps(inputs, sort_keys=True).encode()
    return f"{hashlib.sha256(blob).hexdigest()}.json"


def _restore(path: Path) -> Optional[tuple[CMPResult, dict]]:
    """``(result, metrics)`` of a finished job, or None when its entry
    is missing or unreadable (the job then simply runs again)."""
    try:
        with open(path, encoding="utf-8") as f:
            entry = json.load(f)
        return CMPResult.from_dict(entry["result"]), dict(entry["metrics"])
    except (OSError, ValueError, TypeError, KeyError):
        return None


def _write_entry(
    path: Path, key: str, result: CMPResult, metrics: dict
) -> None:
    """Write one finished job's entry (temp file + atomic rename)."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(
            {"key": key, "result": result.to_dict(), "metrics": metrics}, f
        )
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# The sweep
# ---------------------------------------------------------------------------


def _submit_or_fail(pool, *args) -> Future:
    """``pool.submit(_execute_job, *args)``; a refused submission (a
    worker was killed from outside while the roster was still being
    submitted) becomes a failed future, so it reaches the loop through
    the one failure path."""
    try:
        return pool.submit(_execute_job, *args)
    except Exception as exc:
        future: Future = Future()
        future.set_exception(exc)
        return future


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
        Directory of finished-job entries, one JSON file per job named
        by the sha256 of its inputs. Jobs found there are restored, not
        recomputed; every job that finishes adds its entry. Cannot be
        combined with ``policy_wrapper`` (a key cannot name a callable).
    obs:
        Parent observability context. Each job's metrics land under its
        scope — ``<design>.<policy>``, prefixed with the workload when
        the roster has more than one — at any ``jobs``; with an enabled
        span tracker, the ``sweep`` root gets one ``job.<scope>`` span
        per job that ran, and its heartbeat receives progress
        aggregated across all workers. Without one, a heartbeat is
        still honoured via the ``ZCACHE_PROGRESS_LOG`` environment
        variable.

    Raises ``ValueError`` before capturing anything if two jobs share a
    key (designs with one label). A job that raises, or whose worker
    dies, is named in ``outcome.failed`` and leaves no result.
    """
    cfg = cfg or CMPConfig()
    if checkpoint is not None and policy_wrapper is not None:
        raise ValueError("a checkpoint cannot be combined with a policy_wrapper")
    names = list(workloads) if workloads is not None else scale.workload_names()
    designs, policies = list(designs), list(policies)
    roster = [
        SweepJob(w, d, p) for w in names for d in designs for p in policies
    ]
    shared = sorted(k for k, n in Counter(j.key for j in roster).items() if n > 1)
    if shared:
        raise ValueError(f"sweep jobs share a key: {', '.join(shared)}")
    n_jobs = jobs if jobs is not None else default_jobs()
    heartbeat = obs.heartbeat if obs is not None else Heartbeat.from_env()
    spans = obs.spans if obs is not None else NULL_SPANS
    outcome = ParallelSweepOutcome(
        sweeps={w: SweepResult(workload=w) for w in names}
    )
    job_cfgs = {
        job.key: cfg.with_design(replace(job.design, policy=job.policy))
        for job in roster
    }
    scopes = {job.key: job.scope(len(names) > 1) for job in roster}
    entries: dict[str, Path] = {}
    if checkpoint is not None:
        store = Path(checkpoint)
        store.mkdir(parents=True, exist_ok=True)
        entries = {
            job.key: store / _entry_name(job.workload, job_cfgs[job.key], scale)
            for job in roster
        }
    total = len(roster)

    def commit(job: SweepJob, result: CMPResult, metrics: dict) -> None:
        outcome.sweeps[job.workload].results[
            (job.design.label(), job.policy)
        ] = result
        if obs is not None:
            obs.metrics.merge_snapshot(metrics)

    with spans.span("sweep", total_jobs=total, workers=n_jobs):
        todo = []
        for job in roster:
            entry = _restore(entries[job.key]) if entries else None
            if entry is None:
                todo.append(job)
            else:
                commit(job, *entry)
        outcome.restored = done = total - len(todo)
        if done:
            heartbeat.beat(
                f"sweep: restored {done} from checkpoint", done=done, total=total
            )

        captures: dict[str, CapturedTrace] = {}
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

        def args(job: SweepJob) -> tuple:
            return (
                job_cfgs[job.key], captures[job.workload], policy_wrapper,
                scopes[job.key],
            )

        mode = "serial" if n_jobs <= 1 or len(todo) <= 1 else "parallel"

        def finish(job: SweepJob, run) -> None:
            nonlocal done
            try:
                result, metrics = run()
            except Exception as exc:  # mark and continue: the roster finishes
                outcome.failed[job.key] = f"{type(exc).__name__}: {exc}"
                note = "failed"
            else:
                commit(job, result, metrics)
                if entries:
                    _write_entry(entries[job.key], job.key, result, metrics)
                note = mode
            done += 1
            heartbeat.beat(f"sweep: {job.key} [{note}]", done=done, total=total)

        if mode == "serial":
            for job in todo:
                with spans.span(f"job.{scopes[job.key]}", key=job.key):
                    finish(job, partial(_execute_job, *args(job), spans))
        else:
            # Workers take no job until every job is submitted. A job that
            # kills its worker while submit() runs can otherwise orphan a
            # future: on Python 3.11 the pool fails its pending futures
            # without holding the submit lock, so a job submitted during
            # that sweep never resolves and its result() waits forever.
            # The gate is a semaphore with one permit per worker, not an
            # Event: a worker killed while waiting on an Event's condition
            # makes set() block for good.
            gate = multiprocessing.Semaphore(0)
            with ProcessPoolExecutor(
                max_workers=n_jobs, initializer=gate.acquire
            ) as pool:
                try:
                    submitted = [
                        (job, spans.now(), _submit_or_fail(pool, *args(job)))
                        for job in todo
                    ]
                finally:
                    for _ in range(n_jobs):
                        gate.release()
                for job, start, future in submitted:
                    finish(job, future.result)
                    spans.record_span(
                        f"job.{scopes[job.key]}", start=start, end=spans.now(),
                        key=job.key,
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
    add("--checkpoint", type=str, default=None, metavar="DIR",
        help="directory of finished-job entries keyed by their inputs: "
        "the same command run again restores every job it finished")
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
