"""The workload and metric tables.

One source for ``BENCHMARK.json`` (checked by the self-test), the
output of ``run.py``, the verdicts of ``compare.py`` and the README.

Two views of the same metrics exist because the builder contract is
narrower than ZBench's own tables:

- **ZBench's view** (README, ``compare.py``, ``results/``): 14
  end-to-end metrics, each defined on the workloads in its ``on`` list
  and carrying a regression bound, plus the per-layer ladder.
- **The contract's view** (``BENCHMARK.json``, the last line of a
  ``--workload`` run): every workload emits *every* ``end_to_end`` metric
  with ``--trace 0`` and *every* ``per_layer`` metric with ``--trace 1``,
  and an end-to-end metric is never 0. So only the metrics defined on all
  six workloads are ``end_to_end`` there (``contract_e2e``); the
  workload-specific ones (``rps_1c``, ``lat_*``, the exact accuracy ratios,
  ``fail_share``) are listed under ``per_layer``, and a layer a workload
  does not exercise is measured on a small fixed probe input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: the four array designs every ladder carries (4 ways each)
DESIGNS = ("sa4h", "sk4", "z4_16", "z4_52")

SIM = ("sweep_pressure", "sweep_resident")
SERVE = ("serve_hot", "serve_pressure", "serve_mixed_tcp")
ALL = SIM + ("assoc_cdf",) + SERVE


@dataclass(frozen=True)
class Workload:
    """One named input set. ``kind`` selects the pass that is timed."""

    name: str
    kind: str  # "sim" | "assoc" | "serve"
    why: str
    #: size knobs of the timed pass: full run / ``--quick`` self-test
    full: dict
    quick: dict


#: Names are permanent. Sizes were shrunk (never the list) until one run
#: fits the builder-contract cap; the final sizes are the ``full`` dicts.
WORKLOADS = (
    Workload(
        "sweep_pressure", "sim",
        "Fig. 4 path on cactusADM+canneal (miss-intensive): walk, victim "
        "select and relocation commit dominate; replay is most of wall",
        full={"proxies": (("cactusADM", 6000), ("canneal", 3000))},
        quick={"proxies": (("cactusADM", 600), ("canneal", 400))},
    ),
    Workload(
        "sweep_resident", "sim",
        "same sweep on blackscholes+gamess (cache-friendly): walks barely "
        "fire; trace generation, L1 and directory in capture() dominate",
        full={"proxies": (("blackscholes", 30000), ("gamess", 30000))},
        quick={"proxies": (("blackscholes", 1500), ("gamess", 1500))},
    ),
    Workload(
        "assoc_cdf", "assoc",
        "fig2 + measure_associativity of 4 designs on uniform-random "
        "traces: every eviction pays TrackedPolicy rank maths, not the walk",
        full={"fig2_accesses": 10000, "trace_accesses": 8000, "warmup": 2048},
        quick={"fig2_accesses": 2600, "trace_accesses": 3000, "warmup": 2048},
    ),
    Workload(
        "serve_hot", "serve",
        "in-process service, Zipf(0.9) over 0.5x capacity: hit rate ~1, no "
        "evictions; key_address + lock-free get + recency buffer are the cost",
        full={"keyspace_mult": 0.5, "requests_1c": 150000, "requests_2c": 150000, "mix": "get"},
        quick={"keyspace_mult": 0.5, "requests_1c": 4000, "requests_2c": 4000, "mix": "get"},
    ),
    Workload(
        "serve_pressure", "serve",
        "same service, keyspace 4x capacity (hit rate ~0.7): prepare_fill "
        "walk, commit, stale-retry and relocation are on the timed path",
        full={"keyspace_mult": 4.0, "requests_1c": 16000, "requests_2c": 8000, "mix": "get"},
        quick={"keyspace_mult": 4.0, "requests_1c": 1500, "requests_2c": 1500, "mix": "get"},
    ),
    Workload(
        "serve_mixed_tcp", "serve",
        "TCP server subprocess, str keys, 50% PUT/10% DEL/40% GET+fill at "
        "4x capacity: overwrites, invalidates, blake2b keys, line protocol",
        full={"keyspace_mult": 4.0, "requests_1c": 8000, "requests_2c": 6000, "mix": "mixed",
              "tcp": True},
        quick={"keyspace_mult": 4.0, "requests_1c": 800, "requests_2c": 800, "mix": "mixed",
               "tcp": True},
    ),
)

#: In a traced run every pass runs, so that every workload can report
#: every per-layer metric: the workload's own pass at its own size, the
#: other two at these probe sizes.
PROBE = {
    "sim": {"proxies": (("canneal", 1000),)},
    "assoc": {"fig2_accesses": 2600, "trace_accesses": 3000, "warmup": 2048},
    "serve": {"keyspace_mult": 4.0, "requests_1c": 3000, "requests_2c": 3000, "mix": "get"},
}
PROBE_QUICK = {
    "sim": {"proxies": (("canneal", 300),)},
    "assoc": {"fig2_accesses": 2600, "trace_accesses": 3000, "warmup": 2048},
    "serve": {"keyspace_mult": 4.0, "requests_1c": 800, "requests_2c": 800, "mix": "get"},
}


@dataclass(frozen=True)
class Metric:
    """One reported number."""

    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: workloads on which ZBench defines (and compare.py judges) it
    on: tuple = ALL
    #: share of the parent's median by which it may worsen (None: no bound)
    bound: Optional[float] = None
    #: absolute bound, used instead of ``bound`` (hit_rate)
    abs_bound: Optional[float] = None
    #: simulated or counted on a single thread: repeats bit for bit
    exact: bool = False
    #: emitted by every workload with ``--trace 0`` (BENCHMARK.json end_to_end)
    contract_e2e: bool = False
    #: not printed when ``os.cpu_count() == 1``
    needs_2_cpus: bool = False
    #: which end-to-end metric, on which workload, it should move
    moves: str = ""
    meaning: str = ""


def _per_design(prefix: str, unit: str, better: str, **kw) -> list[Metric]:
    return [Metric(f"{prefix}.{d}", unit, better, **kw) for d in DESIGNS]


# -- ZBench's 14 end-to-end metrics ------------------------------------------
E2E = [
    Metric("setup_s", "s", "lower", bound=0.25, contract_e2e=True,
           meaning="imports, input generation, construction, pre-fill, server "
           "start, in calibrated seconds"),
    Metric("wall_s", "s", "lower", bound=0.25, contract_e2e=True,
           meaning="host time of one repeat at the stated size (serve_*: the "
           "1-client closed loop), in calibrated seconds"),
    Metric("peak_rss_mb", "MB", "lower", bound=0.10, contract_e2e=True,
           meaning="ru_maxrss of the workload process (plus the server's on TCP)"),
    Metric("hit_rate", "share", "higher", bound=0.12, abs_bound=0.01,
           contract_e2e=True,
           meaning="serve_*: client-observed GET hits / GETs (1 client); "
           "simulator workloads: hits / lookups summed over the modelled caches"),
    Metric("rps", "1/s", "higher", on=SERVE, bound=0.10,
           meaning="requests per calibrated second, closed loop, 2 clients"),
    Metric("rps_1c", "1/s", "higher", on=SERVE, bound=0.10,
           meaning="requests per calibrated second, closed loop, 1 client"),
    Metric("lat_p50_us", "us", "lower", on=SERVE, bound=0.10,
           meaning="per request (GET incl. its fill), 2 clients; calibrated"),
    Metric("lat_p99_us", "us", "lower", on=SERVE, bound=0.10,
           meaning="same; >=150 samples beyond it per repeat"),
    Metric("mpki_ratio_z52", "ratio", "lower", on=("sweep_pressure",),
           bound=0.0, exact=True,
           meaning="geomean MPKI(Z4/52)/MPKI(SA-4h); simulated"),
    Metric("ipc_ratio_z52", "ratio", "higher", on=("sweep_pressure",),
           bound=0.0, exact=True,
           meaning="geomean IPC(Z4/52)/IPC(SA-4h); simulated"),
    Metric("ks_xn_rc", "KS", "lower", on=("assoc_cdf",), bound=0.0,
           exact=True, meaning="max over fig2's n of KS(random-candidates CDF, x^n)"),
    Metric("ks_xn_z16", "KS", "lower", on=("assoc_cdf",), bound=0.0,
           exact=True, meaning="KS(Z4/16 eviction-priority CDF, x^16)"),
    Metric("ks_xn_z52", "KS", "lower", on=("assoc_cdf",), bound=0.0,
           exact=True, meaning="KS(Z4/52 eviction-priority CDF, x^52)"),
    Metric("fail_share", "share", "lower", bound=0.0,
           meaning="failed / attempted operations"),
]

_WALK = "wall_s on sweep_pressure; rps, lat_p99_us on serve_pressure"
_CORE = ("wall_s on sweep_pressure via sim.replay_s.z4_*; rps, lat_p99_us on "
         "serve_pressure, serve_mixed_tcp; no change on sweep_resident, serve_hot")
_KERN = "nothing end-to-end today (default engine is reference)"
_CAP = "wall_s on sweep_resident"
_REP = "wall_s on sweep_pressure"
_GET = "rps, lat_p50_us on serve_hot"
_FILL = "rps, lat_p99_us on serve_pressure"
_TCP = "rps, lat_p50_us on serve_mixed_tcp"

# -- the per-layer ladder ----------------------------------------------------
LADDER = [
    Metric("hashing.h3_ns", "ns", "lower", moves=_WALK),
    Metric("hashing.mix_ns", "ns", "lower", moves=_WALK),
    Metric("replacement.lru_touch_ns", "ns", "lower", moves=_WALK),
    *[Metric(f"replacement.select_us.n{n}", "us", "lower", moves=_WALK)
      for n in (4, 16, 52)],
    Metric("core.lookup_ns", "ns", "lower", moves=_CORE),
    Metric("core.access_hit_ns", "ns", "lower", moves=_CORE),
    *_per_design("core.walk_us", "us", "lower", moves=_CORE),
    Metric("core.walk_candidates.z4_16", "count", "higher", exact=True, moves=_CORE),
    Metric("core.walk_candidates.z4_52", "count", "higher", exact=True, moves=_CORE),
    Metric("core.walk_repeat_share.z4_52", "share", "lower", exact=True, moves=_CORE),
    *_per_design("core.commit_us", "us", "lower", moves=_CORE),
    Metric("core.relocs_per_fill.z4_16", "count", "lower", exact=True, moves=_CORE),
    Metric("core.relocs_per_fill.z4_52", "count", "lower", exact=True, moves=_CORE),
    *_per_design("core.access_miss_us", "us", "lower", moves=_CORE),
    Metric("core.prepare_fill_us.z4_16", "us", "lower", moves=_FILL),
    Metric("core.commit_prepared_us.z4_16", "us", "lower", moves=_FILL),
    Metric("kernels.access_hit_ns", "ns", "lower", moves=_KERN),
    *_per_design("kernels.access_miss_us", "us", "lower", moves=_KERN),
    Metric("kernels.rc_tracked_access_us", "us", "lower",
           moves="wall_s on assoc_cdf if turbo becomes the engine"),
    Metric("assoc.tracked_touch_ns", "ns", "lower", moves="wall_s on assoc_cdf"),
    Metric("assoc.tracked_evict_us", "us", "lower", moves="wall_s on assoc_cdf"),
    Metric("assoc.fig2_s", "s", "lower", moves="wall_s on assoc_cdf"),
    *_per_design("assoc.measure_s", "s", "lower", moves="wall_s on assoc_cdf"),
    Metric("workloads.stream_ns", "ns", "lower",
           moves="wall_s on sweep_resident; minor on sweep_pressure"),
    Metric("sim.capture_s", "s", "lower", moves=_CAP),
    Metric("sim.capture_ns_per_access", "ns", "lower", moves=_CAP),
    Metric("sim.l1_access_ns", "ns", "lower", moves=_CAP),
    Metric("sim.directory_ns", "ns", "lower", moves=_CAP),
    *_per_design("sim.replay_s", "s", "lower", moves=_REP),
    *_per_design("sim.replay_us_per_event", "us", "lower", moves=_REP),
    *_per_design("sim.l2_access_us", "us", "lower", moves=_REP),
    Metric("sim.l2_events", "count", "lower", exact=True, moves=_REP),
    *_per_design("sim.l2_misses", "count", "lower", exact=True, moves=_REP),
    *_per_design("sim.walk_tag_reads", "count", "lower", exact=True, moves=_REP),
    *_per_design("sim.relocations", "count", "lower", exact=True, moves=_REP),
    Metric("experiments.sweep_overhead_s", "s", "lower",
           moves="wall_s on sweep_*"),
    Metric("experiments.parallel_speedup_j2", "ratio", "higher",
           needs_2_cpus=True, moves="wall_s on sweep_* with jobs=2"),
    Metric("serve.key_address_int_ns", "ns", "lower", moves=_GET),
    Metric("serve.key_address_str_ns", "ns", "lower", moves=_TCP),
    Metric("serve.shard_get_hit_ns", "ns", "lower", moves=_GET),
    Metric("serve.shard_get_miss_ns", "ns", "lower", moves=_FILL),
    Metric("serve.service_get_ns", "ns", "lower", moves=_GET),
    Metric("serve.shard_put_overwrite_us", "us", "lower", moves=_TCP),
    Metric("serve.shard_put_fill_us", "us", "lower", moves=_FILL),
    Metric("serve.shard_invalidate_us", "us", "lower", moves=_TCP),
    Metric("serve.dispatch_get_us", "us", "lower", moves=_TCP),
    Metric("serve.tcp_ping_rtt_us", "us", "lower", moves=_TCP),
    Metric("serve.hit_p50_us", "us", "lower", moves=_GET),
    Metric("serve.miss_p50_us", "us", "lower", moves=_FILL),
    Metric("serve.get_busy_share", "share", "lower", moves=_GET),
    Metric("serve.put_busy_share", "share", "lower", moves=_FILL),
    Metric("serve.fills", "count", "lower", moves=_FILL),
    Metric("serve.evictions", "count", "lower", moves=_FILL),
    Metric("serve.relocs_per_fill", "count", "lower", moves=_FILL),
    Metric("serve.stale_retries", "count", "lower", moves=_FILL),
    Metric("serve.walk_races", "count", "lower", moves=_FILL),
    Metric("serve.fallback_fills", "count", "lower", moves=_FILL),
    Metric("serve.recency_dropped", "count", "lower", moves=_GET),
    Metric("serve.commit_useful_ratio", "ratio", "higher", moves=_FILL),
    Metric("serve.c2_over_c1", "ratio", "higher", needs_2_cpus=True,
           moves="rises when a change frees the shard lock or the GIL"),
    Metric("ref.dictlru_rps", "1/s", "higher",
           moves="never a target: the dict+LRU trade next to rps/hit_rate"),
    Metric("ref.dictlru_hit_rate", "share", "higher", moves="never a target"),
    Metric("bench.calib_ns", "ns", "lower",
           moves="host seconds = calibrated seconds x calib_ns / 250"),
    Metric("bench.trace_overhead_pct", "%", "lower"),
    Metric("bench.residual_share", "share", "lower"),
]

#: what ``--trace 0`` prints on the last line, for every workload
CONTRACT_E2E = [m for m in E2E if m.contract_e2e]
#: what ``--trace 1`` prints on the last line, for every workload
CONTRACT_LAYER = [m for m in E2E if not m.contract_e2e] + LADDER

BY_NAME = {m.name: m for m in E2E + LADDER}
WORKLOAD_BY_NAME = {w.name: w for w in WORKLOADS}


def benchmark_json(run_seconds: int) -> dict:
    """The contents ``BENCHMARK.json`` must have (the self-test compares)."""
    return {
        "command": ["python3", "benchmarks/zbench/run.py"],
        "paths": ["benchmarks/zbench"],
        "run_seconds": run_seconds,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in CONTRACT_E2E
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in CONTRACT_LAYER
        ],
    }
