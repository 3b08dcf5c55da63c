"""Parallel sweep engine: one roster driver, process-pool replay,
deterministic merge.

The paper's LLC evaluation (Section VI) is a large outer product —
72 workloads x 6 designs x multiple policies — of *independent* replay
jobs: each replays one workload's L1-filtered stream against one L2
design under one policy, sharing no mutable state with any other job.
That independence makes the sweep embarrassingly parallel.

:func:`run_roster` is the one loop that runs such a roster (restore,
run in-process or in a pool, retry, degrade, checkpoint — its docstring
is the contract). It knows nothing about what a job is; the design
sweep here and the fault campaign (:mod:`repro.faults.campaign`) each
supply a worker and a commit.

:func:`run_parallel_sweeps` is the sweep's side of that contract, at
every ``jobs`` value:

1. **Capture once.** The parent captures each workload's stream with
   :meth:`~repro.sim.TraceDrivenRunner.capture` and ships the
   :class:`~repro.sim.cmp.CapturedTrace` to workers.
2. **One seed per job**, derived from the sweep seed and the job key,
   so a retried or resubmitted job can never drift from its first
   scheduling.
3. **Merge deterministically.** A worker replays under a *private*
   :class:`~repro.obs.ObsContext`; its commit folds the metrics
   snapshot into the parent registry
   (:meth:`~repro.obs.MetricsRegistry.merge_snapshot`: additive, order
   independent). Replay is bit-deterministic given (trace, design,
   policy), so results are identical at any worker count.
4. **Stitch spans.** Under an enabled :class:`~repro.obs.SpanTracker`
   the parent's ``sweep`` root gets one ``job.<scope>`` child per job
   (its id derived from the job seed, so both sides can name it without
   a rendezvous); a worker records its ``replay.<scope>`` tree into a
   per-job JSONL sink named in the :class:`~repro.obs.SpanContext` it
   was submitted with, and the commit adopts that tree under the job
   span, re-based onto the parent clock and clamped into the job's
   submit-to-join window. Retries and degradation show as span
   attributes, so the ``timeline`` CLI renders the fan-out as one tree.

The checkpoint is one JSON file rewritten atomically after every
finished job; a fingerprint of the roster, scale, seed and engine makes
a stale one ignored rather than resurrected.

Entry points: :func:`run_parallel_sweeps`, ``run_design_sweep`` /
``collect_design_sweeps`` (:mod:`repro.experiments.runner`, which raise
on a failed job instead of returning a sweep with holes) and the
``zcache-repro sweep --jobs N`` CLI (:func:`run_sweep_cli`).
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import zlib
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

from repro.experiments.runner import ExperimentScale, SweepResult
from repro.hashing.mixers import splitmix64
from repro.obs import (
    NULL_SPANS,
    Heartbeat,
    ObsContext,
    SpanContext,
    SpanTracker,
    read_span_export,
    sanitize_component,
)
from repro.obs.spans import derive_trace_id
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


def derive_job_seed(base_seed: int, key: str) -> int:
    """Deterministic per-job seed from the sweep seed and the job key.

    Stable across processes and Python versions (crc32 + splitmix64,
    never the salted builtin ``hash``), so a retried job always replays
    under exactly the seed of its first submission.
    """
    return splitmix64((base_seed & 0xFFFFFFFF) << 32 | zlib.crc32(key.encode()))


@dataclass(frozen=True)
class SweepJob:
    """One (workload, design, policy) replay unit."""

    workload: str
    design: L2DesignConfig
    policy: str
    seed: int  #: deterministic per-job seed (see :func:`derive_job_seed`)

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

    @property
    def span_id(self) -> int:
        """Deterministic id of this job's parent-side span.

        Derived from the job seed, so the parent can name the span at
        submit time and the worker can parent its tree under it without
        any rendezvous — and a retried job reuses the same id.
        """
        return derive_trace_id(self.seed)

    @property
    def fingerprint(self) -> str:
        """Filesystem-safe job identity (per-job span sink file names)."""
        return f"{self.seed:016x}"


@dataclass
class JobOutcome:
    """What happened to one job (for reporting and the checkpoint)."""

    key: str
    #: "parallel" | "serial" | "checkpoint" | "failed"
    status: str
    attempts: int = 1
    error: str = ""
    result: Optional[CMPResult] = None


@dataclass
class ParallelSweepOutcome:
    """Everything a sweep produced, plus how it got there."""

    #: workload name -> SweepResult (same shape as run_design_sweep's)
    sweeps: dict = field(default_factory=dict)
    #: job key -> JobOutcome, in deterministic job order
    outcomes: dict = field(default_factory=dict)
    #: True when the worker pool died and jobs fell back to the parent
    degraded: bool = False
    #: jobs restored from the checkpoint instead of recomputed
    restored: int = 0

    @property
    def failed(self) -> list:
        """Outcomes of the jobs that produced no result."""
        return [o for o in self.outcomes.values() if o.status == "failed"]


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def _execute_job(
    job: SweepJob,
    cfg: CMPConfig,
    captured: CapturedTrace,
    policy_wrapper,
    scope: str,
    obs: Optional[ObsContext],
) -> CMPResult:
    """Replay one job, as span ``replay.<scope>``, its metrics under
    ``scope``. Shared verbatim by workers and the in-process path,
    which is what makes degraded (in-parent) execution bit-identical."""
    spans = obs.spans if obs is not None else NULL_SPANS
    runner = TraceDrivenRunner.from_captured(cfg, captured, seed=job.seed)
    design_cfg = cfg.with_design(replace(job.design, policy=job.policy))
    with spans.span(f"replay.{scope}", key=job.key):
        return runner.replay(
            design_cfg,
            policy_wrapper=policy_wrapper,
            obs=obs.scoped(scope) if obs is not None else None,
        )


def _replay_worker(
    job: SweepJob,
    cfg: CMPConfig,
    captured: CapturedTrace,
    policy_wrapper,
    scope: str,
    span_ctx: Optional[dict] = None,
) -> tuple[CMPResult, dict]:
    """Process-pool entry point: replay under a private ObsContext.

    Returns ``(result, metrics snapshot)``; the parent merges the
    snapshot into its own registry.
    With a serialized :class:`SpanContext`, the worker also records its
    span tree (root ``replay.<scope>``, parented under the parent-side
    job span) into the per-job sink file named in the context; spans
    travel back through the filesystem, not the return value.
    """
    spans = NULL_SPANS
    if span_ctx is not None:
        spans = SpanTracker.from_context(
            SpanContext.from_dict(span_ctx), process=f"worker-{os.getpid()}"
        )
    obs = ObsContext(spans=spans)
    try:
        result = _execute_job(job, cfg, captured, policy_wrapper, scope, obs)
    finally:
        spans.close()
    return result, obs.metrics.snapshot()


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------


def _sweep_fingerprint(
    cfg: CMPConfig,
    scale: ExperimentScale,
    jobs: Sequence[SweepJob],
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
    job: {"fingerprint": ..., "results": {job key: {"status", "result",
    "metrics"}}}. ``load`` ignores files whose fingerprint does not
    match the current sweep, so changing the roster, scale or seed never
    resurrects stale results.
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
        if data.get("fingerprint") != self.fingerprint:
            return {}
        results = data.get("results", {})
        if not isinstance(results, dict):
            return {}
        self._results = results
        return dict(results)

    def record(self, key: str, status: str, result: CMPResult,
               metrics: Optional[dict] = None) -> None:
        """Persist one finished job (atomic rewrite)."""
        self._results[key] = {
            "status": status,
            "result": result.to_dict(),
            "metrics": metrics or {},
        }
        payload = {"fingerprint": self.fingerprint, "results": self._results}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(self.path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(payload, f)
        os.replace(tmp, self.path)


# ---------------------------------------------------------------------------
# The roster driver
# ---------------------------------------------------------------------------


def run_roster(
    label: str,
    roster: Sequence,
    outcome,
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
    timeout: Optional[float] = None,
) -> None:
    """Run every item of ``roster`` exactly once, however it takes.

    The one restore -> run -> retry -> degrade -> checkpoint loop behind
    the design sweep and the fault campaign. Items need a stable
    ``.key``; ``outcome`` needs ``restored`` and ``degraded``
    attributes, which the driver maintains. ``checkpoint`` is the path
    of a :class:`SweepCheckpoint` (None: keep none), valid for rosters
    of the same ``fingerprint``. A *payload* is whatever a job produces;
    the driver never looks inside one.

    ``decode(entry)``
        Payload of a finished job restored from its checkpoint entry.
    ``prepare(todo)``
        Runs once after restore, with the items still to run.
    ``local(item, attempts)``
        Run one item in this process; returns its payload.
    ``submit(pool, item, attempt)``
        Submit one item to the pool; returns the payload's future.
    ``commit(item, status, attempts, payload)``
        Fold a finished item (``status`` is ``"checkpoint"``,
        ``"serial"`` or ``"parallel"``) into the caller's outcome;
        returns ``(result, metrics)`` for the checkpoint record.
    ``fail(item, attempts, error)``
        Mark an item that failed in this process too; the roster
        continues.

    ``jobs <= 1`` (or a single item to run) stays in-process. Otherwise
    every item is submitted up front and joined in roster order, so
    commits arrive in roster order at any worker count. A job that
    raises or outlives the soft ``timeout`` gets one retry with the
    same item; one that fails again, and everything unfinished when the
    pool dies, runs in this process with ``outcome.degraded`` set.
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
            continue
        commit(item, "checkpoint", 1, decode(entry))
        outcome.restored += 1
    done = outcome.restored
    if done:
        heartbeat.beat(
            f"{label}: restored {done} from checkpoint", done=done, total=total
        )
    if prepare is not None:
        prepare(todo)
    finished = set()

    def beat(item, note: str) -> None:
        nonlocal done
        done += 1
        heartbeat.beat(f"{label}: {item.key} [{note}]", done=done, total=total)

    def finish(item, status: str, attempts: int, payload, note: str) -> None:
        result, metrics = commit(item, status, attempts, payload)
        if ckpt is not None:
            ckpt.record(item.key, status, result, metrics)
        finished.add(item.key)
        beat(item, note)

    def run_local(item, attempts: int, note: str) -> None:
        try:
            payload = local(item, attempts)
        except Exception as exc:  # mark and continue: the roster finishes
            fail(item, attempts, f"{type(exc).__name__}: {exc}")
            beat(item, "failed")
        else:
            finish(item, "serial", attempts, payload, note)

    if n_jobs <= 1 or len(todo) <= 1:
        for item in todo:
            run_local(item, 1, "serial")
        return

    try:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            futures = {item.key: submit(pool, item, 1) for item in todo}
            for item in todo:
                for attempt in (1, 2):
                    try:
                        payload = futures[item.key].result(timeout=timeout)
                    except BrokenProcessPool:
                        raise
                    except Exception:  # raised or timed out: retry once
                        if attempt == 1:
                            futures[item.key] = submit(pool, item, 2)
                        continue
                    finish(
                        item, "parallel", attempt, payload,
                        f"parallel x{attempt}",
                    )
                    break
    except BrokenProcessPool:
        outcome.degraded = True
    # Graceful degradation: anything the pool did not finish (worker
    # crash, exhausted retries) re-runs in this process, marked as such.
    for item in todo:
        if item.key not in finished:
            outcome.degraded = True
            run_local(item, 2, "degraded-serial")


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
    timeout: Optional[float] = None,
    checkpoint: Optional[str] = None,
    obs: Optional[ObsContext] = None,
    policy_wrapper=None,
    span_dir: Optional[str] = None,
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
    timeout:
        Soft per-job timeout in seconds; a job gets one retry, then
        falls back to in-parent execution.
    checkpoint:
        Path of a JSON checkpoint. Finished jobs found there (from a
        matching interrupted sweep) are restored, not recomputed.
    obs:
        Parent observability context. Each job's metrics land under its
        scope — ``<design>.<policy>``, prefixed with the workload when
        the roster has more than one — at any ``jobs``; with an enabled
        span tracker, worker spans are stitched under its ``sweep``
        root, and its heartbeat receives progress aggregated across
        all workers. Without one, a
        heartbeat is still honoured via the ``ZCACHE_PROGRESS_LOG``
        environment variable.
    span_dir:
        Directory for the per-job worker span sink files (only used
        when ``obs.spans`` is enabled and the pool path runs). Default:
        a temporary directory, removed after stitching.
    """
    cfg = cfg or CMPConfig()
    designs = list(designs)
    policies = list(policies)
    names = list(workloads) if workloads is not None else scale.workload_names()
    n_jobs = jobs if jobs is not None else default_jobs()
    heartbeat = obs.heartbeat if obs is not None else Heartbeat.from_env()
    spans = obs.spans if obs is not None else NULL_SPANS

    all_jobs = [
        SweepJob(
            workload=w,
            design=d,
            policy=p,
            seed=derive_job_seed(scale.seed, f"{w}|{d.label()}|{p}"),
        )
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
    stitch_dir: Optional[Path] = None

    def capture(todo: list) -> None:
        """Once per workload still to run, in the parent."""
        for w in names:
            if not any(job.workload == w for job in todo):
                continue
            runner = TraceDrivenRunner(
                cfg,
                get_workload(w),
                instructions_per_core=scale.instructions_per_core,
                seed=scale.seed,
            )
            with spans.span(
                f"capture.{sanitize_component(w)}", workload=w
            ):
                captures[w] = runner.capture()
            heartbeat.beat(f"sweep: {w}: captured L2 stream")

    def local(job: SweepJob, attempts: int) -> tuple:
        with spans.span(
            f"job.{scopes[job.key]}",
            span_id=job.span_id,
            key=job.key,
            status="serial",
            attempts=attempts,
        ):
            result = _execute_job(
                job, cfg, captures[job.workload], policy_wrapper,
                scopes[job.key], obs,
            )
        return result, None

    def submit(pool, job: SweepJob, attempt: int) -> Future:
        span_ctx = None
        sink = _span_sink_path(stitch_dir, job, attempt)
        if sink is not None:
            submitted_at.setdefault(job.key, spans.now())
            span_ctx = SpanContext(
                seed=job.seed,
                parent_span_id=job.span_id,
                thread=scopes[job.key],
                sink_path=str(sink),
            ).to_dict()
        return pool.submit(
            _replay_worker,
            job,
            cfg,
            captures[job.workload],
            policy_wrapper,
            scopes[job.key],
            span_ctx,
        )

    def commit(job: SweepJob, status: str, attempts: int, payload) -> tuple:
        """Fold one finished job into the outcome, the registry and —
        for a worker's — the span tree."""
        result, snapshot = payload
        outcome.sweeps[job.workload].results[
            (job.design.label(), job.policy)
        ] = result
        outcome.outcomes[job.key] = JobOutcome(
            key=job.key, status=status, attempts=attempts, result=result
        )
        if obs is not None and snapshot:
            obs.metrics.merge_snapshot(snapshot)
        if status == "parallel" and stitch_dir is not None:
            # The job's submit-to-join window, with the worker's span
            # tree stitched under it and clamped into it.
            sink = _span_sink_path(stitch_dir, job, attempts)
            window = (submitted_at[job.key], spans.now())
            spans.record_span(
                f"job.{scopes[job.key]}",
                start=window[0],
                end=window[1],
                span_id=job.span_id,
                key=job.key,
                status=status,
                attempts=attempts,
            )
            if sink.exists():
                spans.adopt(read_span_export(sink), window=window)
        return result, snapshot

    def fail(job: SweepJob, attempts: int, error: str) -> None:
        outcome.outcomes[job.key] = JobOutcome(
            key=job.key, status="failed", attempts=attempts, error=error
        )

    if spans.enabled and n_jobs > 1:
        stitch_dir = Path(span_dir or tempfile.mkdtemp(prefix="ztrace-"))
        stitch_dir.mkdir(parents=True, exist_ok=True)
    try:
        with spans.span("sweep", total_jobs=len(all_jobs), workers=n_jobs):
            run_roster(
                "sweep",
                all_jobs,
                outcome,
                jobs=n_jobs,
                timeout=timeout,
                checkpoint=checkpoint,
                fingerprint=_sweep_fingerprint(cfg, scale, all_jobs),
                heartbeat=heartbeat,
                decode=lambda entry: (
                    CMPResult.from_dict(entry["result"]),
                    entry.get("metrics"),
                ),
                prepare=capture,
                local=local,
                submit=submit,
                commit=commit,
                fail=fail,
            )
            spans.set_attr(restored=outcome.restored)
    finally:
        if stitch_dir is not None and span_dir is None:
            shutil.rmtree(stitch_dir, ignore_errors=True)
    return outcome


def _span_sink_path(
    stitch_dir: Optional[Path], job: SweepJob, attempt: int
) -> Optional[Path]:
    """Per-(job, attempt) worker span sink file (None when spans are off).

    Keyed by the job-seed fingerprint so the parent can re-derive the
    path at join time; the attempt index keeps a timed-out first
    attempt (whose worker may still be writing) from racing its retry.
    """
    if stitch_dir is None:
        return None
    return stitch_dir / f"{job.fingerprint}.a{attempt}.spans.jsonl"


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
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default: available CPUs; 1 = serial)",
    )
    parser.add_argument(
        "--workloads", type=str, default=None,
        help="comma-separated roster subset (default: all 72)",
    )
    parser.add_argument(
        "--policies", type=str, default="lru",
        help="comma-separated replacement policies (default: lru)",
    )
    parser.add_argument("--instructions", type=int, default=6_000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--engine", choices=("reference", "turbo"), default="reference",
        help="bank access engine: 'turbo' runs the ZTurbo vectorized "
        "kernels (bit-identical; unsupported policies fall back)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None,
        help="soft per-job timeout in seconds (one retry, then serial)",
    )
    parser.add_argument(
        "--checkpoint", type=str, default=None, metavar="PATH",
        help="JSON checkpoint: resume an interrupted sweep from here",
    )
    parser.add_argument(
        "--json", type=str, default=None, metavar="PATH",
        help="write per-job results as JSON",
    )
    parser.add_argument(
        "--progress-log", type=str, default=None, metavar="PATH",
        help="append heartbeat progress lines to this file",
    )
    args = parser.parse_args(argv)

    workloads = args.workloads.split(",") if args.workloads else None
    scale = ExperimentScale(
        instructions_per_core=args.instructions,
        workloads=tuple(workloads) if workloads else None,
        seed=args.seed,
    )
    heartbeat = (
        Heartbeat(path=args.progress_log)
        if args.progress_log
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
        timeout=args.timeout,
        checkpoint=args.checkpoint,
        obs=obs,
    )

    print(
        f"sweep: {len(outcome.outcomes)} jobs "
        f"({outcome.restored} restored, {len(outcome.failed)} failed"
        f"{', degraded to serial' if outcome.degraded else ''})"
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
    for job_outcome in outcome.failed:
        print(f"FAILED {job_outcome.key}: {job_outcome.error}")
    if args.json:
        payload = {
            key: {
                "status": o.status,
                "attempts": o.attempts,
                "error": o.error,
                "result": o.result.to_dict() if o.result else None,
            }
            for key, o in outcome.outcomes.items()
        }
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=1)
        print(f"JSON written to {args.json}")
    return 1 if outcome.failed else 0
