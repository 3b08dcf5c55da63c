"""Shared experiment infrastructure: design lists, sweep runner, scaling."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Optional

from repro.obs import ObsContext
from repro.sim import CMPConfig, L2DesignConfig
from repro.workloads import WORKLOADS


@dataclass(frozen=True)
class ExperimentScale:
    """How big to run an experiment.

    ``instructions_per_core`` drives simulation length; ``workloads``
    restricts the roster (None = all 72). Benches use small scales; the
    EXPERIMENTS.md numbers use the defaults.
    """

    instructions_per_core: int = 6_000
    workloads: Optional[tuple[str, ...]] = None
    seed: int = 1

    def workload_names(self) -> list[str]:
        """The workload roster this scale covers."""
        if self.workloads is None:
            return list(WORKLOADS)
        return list(self.workloads)


def baseline_design(parallel: bool = False) -> L2DesignConfig:
    """The paper's baseline: 4-way set-associative with H3 hashing."""
    return L2DesignConfig(kind="sa", ways=4, hash_kind="h3", parallel_lookup=parallel)


#: Fig. 4's design sweep (all serial lookup; the baseline comes first).
DESIGNS_FIG4: tuple[L2DesignConfig, ...] = (
    baseline_design(),
    L2DesignConfig(kind="sa", ways=16, hash_kind="h3"),
    L2DesignConfig(kind="sa", ways=32, hash_kind="h3"),
    L2DesignConfig(kind="skew", ways=4),  # Z4/4
    L2DesignConfig(kind="z", ways=4, levels=2),  # Z4/16
    L2DesignConfig(kind="z", ways=4, levels=3),  # Z4/52
)


def representative_workloads() -> list[str]:
    """Fig. 5's five representative applications."""
    return ["blackscholes", "gamess", "cpu2K6rand0", "canneal", "cactusADM"]


@dataclass
class SweepResult:
    """Results of one workload across several designs/policies."""

    workload: str
    #: (design label, policy) -> CMPResult
    results: dict = field(default_factory=dict)


def _run_sweeps(
    workloads, designs, policies, scale, cfg, policy_wrapper, obs, jobs, engine
) -> dict:
    """Every sweep entry point: the roster through the one sweep engine.

    Returns workload name -> :class:`SweepResult`, complete or not at
    all: a job that failed even in-process raises, naming every failed
    job key and its error.
    """
    from repro.experiments.parallel import run_parallel_sweeps

    cfg = cfg or CMPConfig()
    if engine is not None:
        cfg = replace(cfg, engine=engine)
    outcome = run_parallel_sweeps(
        workloads=workloads,
        designs=designs,
        policies=policies,
        scale=scale,
        cfg=cfg,
        jobs=jobs,
        obs=obs,
        policy_wrapper=policy_wrapper,
    )
    if outcome.failed:
        raise RuntimeError(
            "sweep failed: "
            + "; ".join(f"{o.key}: {o.error}" for o in outcome.failed)
        )
    return outcome.sweeps


def run_design_sweep(
    workload_name: str,
    designs: Iterable[L2DesignConfig],
    policies: Iterable[str] = ("lru",),
    scale: ExperimentScale = ExperimentScale(),
    cfg: Optional[CMPConfig] = None,
    policy_wrapper=None,
    obs: Optional[ObsContext] = None,
    jobs: int = 1,
    engine: Optional[str] = None,
) -> SweepResult:
    """Capture a workload's L2 stream once, replay it per design/policy.

    OPT policies are supported (the captured stream provides the future
    trace). Returns a :class:`SweepResult` keyed by (design label,
    policy name); raises ``RuntimeError`` if any replay failed.

    ``jobs > 1`` fans the (design, policy) replays across that many
    worker processes; ``jobs == 1`` runs the same roster in-process.
    Both go through :func:`repro.experiments.parallel.run_parallel_sweeps`,
    so results are bit-identical (replay is deterministic given the
    captured trace) and an :class:`~repro.obs.ObsContext` sees the same
    names at any ``jobs``: phases ``capture.<workload>`` and
    ``replay.<design>.<policy>``, metrics under ``<design>.<policy>``,
    heartbeat progress per job. Without a context, a heartbeat is still
    honoured if the ``ZCACHE_PROGRESS_LOG`` environment variable names
    a log file.

    ``engine`` (``"reference"`` / ``"turbo"``) overrides ``cfg.engine``
    for every replayed bank — a convenience so callers don't have to
    rebuild the :class:`~repro.sim.CMPConfig` to switch engines.
    """
    return _run_sweeps(
        [workload_name], designs, policies, scale, cfg, policy_wrapper,
        obs, jobs, engine,
    )[workload_name]


def collect_design_sweeps(
    workloads: Iterable[str],
    designs: Iterable[L2DesignConfig],
    policies: Iterable[str] = ("lru",),
    scale: ExperimentScale = ExperimentScale(),
    cfg: Optional[CMPConfig] = None,
    jobs: int = 1,
    obs: Optional[ObsContext] = None,
    engine: Optional[str] = None,
) -> dict:
    """Sweep several workloads; returns workload name -> SweepResult.

    The full (workload x design x policy) product is one roster, fanned
    across ``jobs`` worker processes (in-process at ``jobs == 1``); this
    is how the figure sweeps (and ``REPRO_JOBS=N scripts_run_all.py``
    through them) parallelise.
    With more than one workload, metric scopes carry the workload name
    (``<workload>.<design>.<policy>``), at any ``jobs``. Raises
    ``RuntimeError`` if any replay failed.
    """
    return _run_sweeps(
        list(workloads), designs, policies, scale, cfg, None, obs, jobs, engine
    )


def improvement(base: float, value: float) -> float:
    """Fractional improvement as the paper plots it.

    For MPKI: base/value (1.2 = 1.2x fewer misses). For IPC the caller
    passes value/base instead.
    """
    if value == 0:
        return float("inf") if base > 0 else 1.0
    return base / value
