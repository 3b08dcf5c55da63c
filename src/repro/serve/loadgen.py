"""Load generator: replay the workload proxies as concurrent requests.

Each worker thread replays one core's access stream from a
:class:`~repro.workloads.spec.WorkloadSpec` — the same 72 proxies the
simulator experiments use, so service traffic has the simulator's
locality structure — against any backend with the
get/put/invalidate/snapshot interface. Reads run cache-aside: a miss
is followed by a ``put`` *inside the same timed request*, so miss
latency honestly includes the fill (walk + relocations) the way a real
service pays it.

Per-request latency is sampled with ``perf_counter_ns`` (this package
is exempt from ZS005: it measures real traffic, not simulated time)
and reported as p50/p95/p99 alongside throughput. When the backend was
built with an ZScope context, each worker also opens a ZTrace span so
timelines show the replay phases.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from itertools import islice
from time import perf_counter, perf_counter_ns
from typing import Any, Optional, Protocol

from repro.obs import NULL_SPANS, ObsContext, SpanTracker
from repro.workloads.suites import get_workload


class ServeBackend(Protocol):
    """What the load generator drives (ZServeCache / DictLRUServe)."""

    def get(self, key: int) -> tuple[bool, Any]:
        """``(hit, value)`` for a read."""
        ...

    def put(self, key: int, value: Any) -> None:
        """Install or overwrite ``key``."""
        ...

    def invalidate(self, key: int) -> bool:
        """Drop ``key``; True when it was cached."""
        ...

    def snapshot(self) -> dict[str, Any]:
        """Service-level aggregate statistics."""
        ...


@dataclass(slots=True)
class LoadGenConfig:
    """One replay: which proxy, how many workers, how many requests."""

    workload: str = "gcc"
    num_workers: int = 4
    requests_per_worker: int = 25_000
    #: footprint scale handed to ``core_stream`` (the proxy's working
    #: set is sized relative to this, exactly as in the simulator)
    footprint_blocks: int = 4096
    seed: int = 0
    #: follow every read miss with a cache-aside fill (PUT of the key)
    fill_on_miss: bool = True
    #: bytes-payload size per value; 0 stores small ints instead.
    #: Sizes past ~2 KiB make the backend's fingerprint work (when
    #: enabled) run with the GIL released — the regime where the
    #: locking discipline, not the interpreter, limits throughput.
    payload_bytes: int = 0

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError(
                f"num_workers must be >= 1, got {self.num_workers}"
            )
        if self.requests_per_worker < 1:
            raise ValueError(
                "requests_per_worker must be >= 1, got "
                f"{self.requests_per_worker}"
            )
        if self.payload_bytes < 0:
            raise ValueError(
                f"payload_bytes must be >= 0, got {self.payload_bytes}"
            )


@dataclass(slots=True)
class LoadGenResult:
    """What one replay measured."""

    workload: str
    workers: int
    requests: int
    elapsed_s: float
    throughput_rps: float
    hits: int
    misses: int
    hit_rate: float
    p50_us: float
    p95_us: float
    p99_us: float
    backend: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready report (rounded floats, backend snapshot inline)."""
        return {
            "workload": self.workload,
            "workers": self.workers,
            "requests": self.requests,
            "elapsed_s": round(self.elapsed_s, 4),
            "throughput_rps": round(self.throughput_rps, 1),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
            "p50_us": round(self.p50_us, 2),
            "p95_us": round(self.p95_us, 2),
            "p99_us": round(self.p99_us, 2),
            "backend": self.backend,
        }


def _percentile_us(ordered_ns: list[int], q: float) -> float:
    """The q-quantile of sorted nanosecond samples, in microseconds."""
    if not ordered_ns:
        return 0.0
    idx = min(len(ordered_ns) - 1, int(q * len(ordered_ns)))
    return ordered_ns[idx] / 1000.0


def _worker(
    index: int,
    backend: ServeBackend,
    cfg: LoadGenConfig,
    barrier: threading.Barrier,
    results: "list[Optional[tuple[list[int], int, int]]]",
    errors: "list[BaseException]",
    spans: SpanTracker,
) -> None:
    try:
        _worker_body(index, backend, cfg, barrier, results, spans)
    except BaseException as exc:
        # Swallowed here (a thread's own traceback helps nobody) and
        # re-raised by run_loadgen on the caller's stack instead.
        errors.append(exc)
        barrier.abort()  # never leave the main thread waiting


def _worker_body(
    index: int,
    backend: ServeBackend,
    cfg: LoadGenConfig,
    barrier: threading.Barrier,
    results: "list[Optional[tuple[list[int], int, int]]]",
    spans: SpanTracker,
) -> None:
    spec = get_workload(cfg.workload)
    stream = spec.core_stream(
        core_id=index,
        l2_blocks=cfg.footprint_blocks,
        seed=cfg.seed,
        num_cores=cfg.num_workers,
    )
    latencies: list[int] = []
    hits = 0
    misses = 0

    def value_for(key: int) -> object:
        if cfg.payload_bytes == 0:
            return key & 0xFFFF
        if cfg.payload_bytes < 8:
            return payload
        # A per-key prefix over a shared buffer: distinct payloads
        # without regenerating payload_bytes of content per request.
        return key.to_bytes(8, "big") + payload[8:]

    payload = bytes(cfg.payload_bytes) if cfg.payload_bytes else b""
    barrier.wait()
    with spans.span(f"loadgen.worker{index}", worker=index):
        for access in islice(stream, cfg.requests_per_worker):
            key = access.address
            start = perf_counter_ns()
            if access.is_write:
                backend.put(key, value_for(key))
            else:
                hit, _ = backend.get(key)
                if hit:
                    hits += 1
                else:
                    misses += 1
                    if cfg.fill_on_miss:
                        backend.put(key, value_for(key))
            latencies.append(perf_counter_ns() - start)
    results[index] = (latencies, hits, misses)


def run_loadgen(
    backend: ServeBackend,
    cfg: Optional[LoadGenConfig] = None,
    obs: Optional[ObsContext] = None,
) -> LoadGenResult:
    """Replay one workload proxy against ``backend`` and measure it.

    Spawns ``cfg.num_workers`` threads, releases them together through
    a barrier (so the elapsed window contains only request traffic),
    and aggregates client-side hit/miss counts with the full latency
    sample. ``hit_rate`` here is the *read* hit rate as the client saw
    it — comparable across backends regardless of how each counts
    internal accesses.
    """
    cfg = cfg if cfg is not None else LoadGenConfig()
    spans = obs.spans if obs is not None else NULL_SPANS
    results: "list[Optional[tuple[list[int], int, int]]]" = [
        None
    ] * cfg.num_workers
    errors: "list[BaseException]" = []
    barrier = threading.Barrier(cfg.num_workers + 1)
    threads = [
        threading.Thread(
            target=_worker,
            args=(i, backend, cfg, barrier, results, errors, spans),
            name=f"loadgen-{i}",
            daemon=True,
        )
        for i in range(cfg.num_workers)
    ]
    with spans.span("loadgen.replay", workload=cfg.workload):
        for thread in threads:
            thread.start()
        try:
            barrier.wait()
        except threading.BrokenBarrierError:
            pass  # a worker died during setup; the errors check reports it
        start = perf_counter()
        for thread in threads:
            thread.join()
        elapsed = perf_counter() - start

    if errors:
        # A worker died (e.g. an InvariantViolation under the sanitized
        # soak): surface the first failure instead of partial numbers.
        raise errors[0]
    all_latencies: list[int] = []
    hits = 0
    misses = 0
    for entry in results:
        assert entry is not None, "worker died before reporting"
        worker_lat, worker_hits, worker_misses = entry
        all_latencies.extend(worker_lat)
        hits += worker_hits
        misses += worker_misses
    all_latencies.sort()
    requests = cfg.num_workers * cfg.requests_per_worker
    reads = hits + misses
    return LoadGenResult(
        workload=cfg.workload,
        workers=cfg.num_workers,
        requests=requests,
        elapsed_s=elapsed,
        throughput_rps=requests / elapsed if elapsed > 0 else 0.0,
        hits=hits,
        misses=misses,
        hit_rate=hits / reads if reads else 0.0,
        p50_us=_percentile_us(all_latencies, 0.50),
        p95_us=_percentile_us(all_latencies, 0.95),
        p99_us=_percentile_us(all_latencies, 0.99),
        backend=backend.snapshot(),
    )
