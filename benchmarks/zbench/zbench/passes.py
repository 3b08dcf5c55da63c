"""The three measured passes: design sweep, associativity CDFs, service.

Each pass has a ``*_setup`` that materialises every input from the seed
before any clock starts, and a run function that drives the public
functions of :mod:`repro` over those inputs, checks the outputs and
returns a :class:`PassResult`. The same run functions serve the untraced
repeats (``spans`` disabled) and the traced pass.
"""

from __future__ import annotations

import math
import os
import random
import re
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Any, Callable, Optional

from repro.assoc import measure_associativity
from repro.core import SetAssociativeArray, SkewAssociativeArray, ZCacheArray
from repro.experiments import fig2
from repro.replacement import LRU
from repro.serve import DictLRUServe, ServeConfig, ZServeCache
from repro.serve.server import ServeClient
from repro.serve.service import key_address
from repro.serve.shard import MISS as SHARD_MISS
from repro.sim import CMPConfig, L2DesignConfig, TraceDrivenRunner
from repro.sim.cmp import MISS as EVENT_MISS
from repro.sim.l2 import BankedL2
from repro.workloads import get_workload

from zbench.calib import Clock
from zbench.spans import SpanRecorder

SRC = Path(__file__).resolve().parents[3] / "src"

#: the sweep's L2 design points (LRU, reference engine, serial lookup)
DESIGN_CFG = {
    "sa4h": L2DesignConfig(kind="sa", ways=4, hash_kind="h3"),
    "sk4": L2DesignConfig(kind="skew", ways=4),
    "z4_16": L2DesignConfig(kind="z", ways=4, levels=2),
    "z4_52": L2DesignConfig(kind="z", ways=4, levels=3),
}

#: standalone 4x512-line arrays of the same four designs, and their R
ARRAYS: dict[str, tuple[Callable[[], Any], int]] = {
    "sa4h": (lambda: SetAssociativeArray(4, 512, hash_kind="h3"), 4),
    "sk4": (lambda: SkewAssociativeArray(4, 512), 4),
    "z4_16": (lambda: ZCacheArray(4, 512, levels=2), 16),
    "z4_52": (lambda: ZCacheArray(4, 512, levels=3), 52),
}


@dataclass
class PassResult:
    """What one execution of a pass measured and checked."""

    #: the timed section in calibrated seconds (see zbench.calib) ...
    wall_s: float = 0.0
    #: ... and in this host's seconds
    raw_s: float = 0.0
    #: the same per timed segment (the same segments in every repeat)
    segments_s: list = field(default_factory=list)
    #: ns per iteration of every calibration taken during the pass
    calib_ns: list = field(default_factory=list)
    #: simulated accesses, or requests of the 1-client loop
    work: int = 0
    hits: int = 0
    lookups: int = 0
    attempted: int = 0
    failed: int = 0
    #: further metrics by name
    values: dict = field(default_factory=dict)
    #: first failure messages, for the report
    errors: list = field(default_factory=list)

    def fail(self, count: int, message: str) -> None:
        """Count ``count`` failed operations and keep the first reasons."""
        self.failed += count
        if len(self.errors) < 5:
            self.errors.append(message)

    def absorb(self, other: "PassResult") -> None:
        """Add another result's operation counts and failure reasons."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors

    def timed(self, clock: Clock) -> None:
        """Take the pass's times from its clock."""
        self.wall_s, self.raw_s, self.calib_ns = clock.cal_s, clock.raw_s, clock.samples_ns
        self.segments_s = clock.cal


# ---------------------------------------------------------------------------
# design sweep (sweep_pressure, sweep_resident)
# ---------------------------------------------------------------------------

def sim_setup(size: dict, seed: int) -> dict:
    """Resolve the proxies; the streams themselves are lazy generators
    that ``capture()`` pulls, so trace generation is on the timed path
    (users pay it on every artifact run)."""
    return {
        "seed": seed,
        "proxies": [(get_workload(p), n) for p, n in size["proxies"]],
    }


def sim_run(inputs: dict, spans: SpanRecorder) -> PassResult:
    """capture() once + replay() of the four designs, per proxy.

    One operation = one (proxy, design) replay; it fails when its demand
    accounting is off or the designs disagree on the L1 stream.
    """
    res = PassResult()
    cfg = CMPConfig()
    counts: dict[str, int] = {"sim.l2_events": 0}
    log_mpki = log_ipc = 0.0
    clock = Clock(calibrated=not spans.enabled)
    with spans.span("pass.sim"):
        for spec, instructions in inputs["proxies"]:
            runner = TraceDrivenRunner(
                cfg, spec, instructions_per_core=instructions, seed=inputs["seed"]
            )
            with clock.segment(), spans.span("sim.capture"):
                captured = runner.capture()
            first = "captured" not in inputs
            if first:  # kept for check_l2 and the ladder's address sample
                inputs["captured"], inputs["first_misses"] = captured, {}
            demand = sum(1 for ev in captured.events if ev[0] == EVENT_MISS)
            counts["sim.l2_events"] += len(captured.events)
            res.work += captured.l1_accesses
            results = {}
            for d, design in DESIGN_CFG.items():
                with clock.segment(), spans.span(f"sim.replay.{d}"):
                    r = runner.replay(cfg.with_design(design))
                results[d] = r
                if first:
                    inputs["first_misses"][d] = r.l2_misses
                res.attempted += 1
                if r.l2_hits + r.l2_misses != demand:
                    res.fail(1, f"{spec.name}/{d}: hits+misses != demand events")
                elif r.l1_misses != results["sa4h"].l1_misses:
                    res.fail(1, f"{spec.name}/{d}: designs disagree on l1_misses")
                res.hits += r.l2_hits
                res.lookups += r.l2_hits + r.l2_misses
                for stat, value in (
                    ("l2_misses", r.l2_misses),
                    ("walk_tag_reads", r.walk_tag_reads),
                    ("relocations", r.relocations),
                ):
                    counts[f"sim.{stat}.{d}"] = counts.get(f"sim.{stat}.{d}", 0) + value
            log_mpki += math.log(results["z4_52"].l2_mpki / results["sa4h"].l2_mpki)
            log_ipc += math.log(
                results["z4_52"].aggregate_ipc / results["sa4h"].aggregate_ipc
            )
    res.timed(clock)
    n = len(inputs["proxies"])
    res.values.update(counts)
    res.values["mpki_ratio_z52"] = math.exp(log_mpki / n)
    res.values["ipc_ratio_z52"] = math.exp(log_ipc / n)
    return res


def check_l2(inputs: dict, design: str, res: PassResult) -> tuple[float, int]:
    """One checked operation: a standalone BankedL2 over the first proxy.

    ``replay()`` builds its L2 internally, so this is how the harness
    gets at the arrays: it feeds the captured demand misses to its own
    ``BankedL2``, runs ``check_invariants`` on every bank, and requires
    the same miss count as the replay (writebacks and upgrades never
    move a block). Returns the seconds spent in ``l2.access`` and the
    number of accesses, which is the ``sim.l2_access_us`` rung.
    """
    l2 = BankedL2(CMPConfig().with_design(DESIGN_CFG[design]))
    demand = [(ev[2], ev[3]) for ev in inputs["captured"].events
              if ev[0] == EVENT_MISS]
    access = l2.access
    start = perf_counter()
    for address, is_write in demand:
        access(address, is_write)
    seconds = perf_counter() - start
    res.attempted += 1
    try:
        for bank in l2.banks:
            bank.array.check_invariants()
    except AssertionError as exc:
        res.fail(1, f"{design}: check_invariants: {exc}")
    else:
        if l2.misses != inputs["first_misses"][design]:
            res.fail(1, f"{design}: standalone L2 and replay disagree on misses")
    return seconds, len(demand)


# ---------------------------------------------------------------------------
# associativity CDFs (assoc_cdf)
# ---------------------------------------------------------------------------

def assoc_setup(size: dict, seed: int) -> dict:
    """Materialise the uniform-random trace (footprint 8x the 2048 lines)."""
    rng = random.Random(seed)
    footprint = 8 * 2048
    return {
        "seed": seed,
        "fig2_accesses": size["fig2_accesses"],
        "warmup": size["warmup"],
        "trace": [(rng.randrange(footprint), False)
                  for _ in range(size["trace_accesses"])],
    }


def assoc_run(inputs: dict, spans: SpanRecorder) -> PassResult:
    """fig2.run + measure_associativity of the four designs.

    One operation = one fig2 panel or one measured design; it fails when
    the KS distance is not a distance, the cache lost accesses, or the
    array's invariants do not hold afterwards.
    """
    res = PassResult()
    trace = inputs["trace"]
    clock = Clock(calibrated=not spans.enabled)
    with spans.span("pass.assoc"):
        with clock.segment(), spans.span("assoc.fig2"):
            fig = fig2.run(
                cache_blocks=2048, accesses=inputs["fig2_accesses"],
                seed=inputs["seed"],
            )
        ks_rc = 0.0
        for n, (_cdf, ks) in fig.simulated.items():
            res.attempted += 1
            if not 0.0 <= ks <= 1.0:
                res.fail(1, f"fig2 n={n}: KS {ks} outside [0, 1]")
            ks_rc = max(ks_rc, ks)
        res.values["ks_xn_rc"] = ks_rc
        res.work += len(fig.simulated) * inputs["fig2_accesses"]
        for d, (factory, candidates) in ARRAYS.items():
            with clock.segment(), spans.span(f"assoc.measure.{d}"):
                dist, cache = measure_associativity(
                    factory, LRU, trace, warmup=inputs["warmup"]
                )
            res.attempted += 1
            res.work += len(trace)
            res.hits += cache.stats.hits
            res.lookups += len(trace)
            try:
                cache.array.check_invariants()
            except AssertionError as exc:
                res.fail(1, f"{d}: check_invariants: {exc}")
            else:
                if cache.stats.hits + cache.stats.misses != len(trace):
                    res.fail(1, f"{d}: hits+misses != trace length")
            if d == "z4_16":
                res.values["ks_xn_z16"] = dist.ks_to_uniformity(candidates)
            elif d == "z4_52":
                res.values["ks_xn_z52"] = dist.ks_to_uniformity(candidates)
    res.timed(clock)
    return res


# ---------------------------------------------------------------------------
# cache service (serve_hot, serve_pressure, serve_mixed_tcp)
# ---------------------------------------------------------------------------

GET, PUT, DEL = 0, 1, 2


class ServerProc:
    """``python -m repro.cli serve --port 0`` as a subprocess."""

    def __init__(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            stdout=subprocess.PIPE, env=env, text=True,
        )
        assert self.proc.stdout is not None
        banner = self.proc.stdout.readline()
        match = re.search(r"listening on (\S+):(\d+)", banner)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not start: {banner!r}")
        self.host, self.port = match.group(1), int(match.group(2))

    def stop(self) -> None:
        """Terminate the server and wait until it has ended."""
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


class TcpBackend:
    """One connection, with the in-process service's get/put/invalidate."""

    def __init__(self, server: ServerProc) -> None:
        self.client = ServeClient(server.host, server.port)

    def get(self, key: str) -> tuple[bool, Optional[str]]:
        value = self.client.get(key)  # raises on an ERR reply
        return value is not None, value

    def put(self, key: str, value: str) -> None:
        self.client.put(key, value)

    def invalidate(self, key: str) -> bool:
        return self.client.delete(key)


def _zipf_ranks(rng: random.Random, keyspace: int, count: int, skew: float = 0.9) -> list[int]:
    """``count`` popularity ranks in [0, keyspace), bounded-Pareto inverse CDF."""
    exponent = 1.0 - skew
    span = keyspace**exponent - 1.0
    inv = 1.0 / exponent
    draw = rng.random
    top = keyspace - 1
    return [min(top, int((span * draw() + 1.0) ** inv) - 1) for _ in range(count)]


def serve_setup(size: dict, seed: int) -> dict:
    """Keys, values, per-client streams, and (TCP) the started server.

    One seeded popularity permutation per workload; every client draws
    its own rank samples from it, so all clients share one hot set.
    Values are a pure function of the key, so every HIT can be checked.
    """
    cfg = ServeConfig()
    keyspace = int(cfg.capacity * size["keyspace_mult"])
    tcp = bool(size.get("tcp"))
    rng = random.Random(seed)
    ids = list(range(keyspace))
    rng.shuffle(ids)  # ids[rank]: rank 0 is the hottest key
    if tcp:
        keys: list = [f"{(i * 0x9E3779B97F4A7C15 + seed) & 0xFFFFFFFFFFFF:x}" for i in ids]
        values = {k: "v" + k[::-1] for k in keys}
    else:
        keys = ids
        values = {k: (k * 2654435761 + 12345) & 0xFFFFFFFF for k in keys}

    def stream(client: int, count: int) -> tuple[list, bytes]:
        crng = random.Random(seed * 1_000_003 + client)
        ks = [keys[r] for r in _zipf_ranks(crng, keyspace, count)]
        if size["mix"] == "mixed":
            ops = bytes(
                PUT if u < 0.5 else DEL if u < 0.6 else GET
                for u in (crng.random() for _ in range(count))
            )
        else:
            ops = bytes(count)
        return ks, ops

    inputs = {
        "capacity": cfg.capacity,
        "keys": keys,
        "values": values,
        #: what a HIT must return; the self-test swaps in a wrong one
        "expected": values,
        "one": [stream(0, size["requests_1c"])],
        "two": [stream(1, size["requests_2c"]), stream(2, size["requests_2c"])],
        "server": None,
    }
    if tcp:
        inputs["server"] = server = ServerProc()
        try:
            with ServeClient(server.host, server.port) as client:
                prefill(client, inputs)
        except BaseException:
            server.stop()
            raise
    return inputs


def prefill(backend: Any, inputs: dict) -> Any:
    """Install the hottest ``capacity`` keys, hottest last."""
    values = inputs["values"]
    for key in reversed(inputs["keys"][: inputs["capacity"]]):
        backend.put(key, values[key])
    return backend


def fresh_service(inputs: dict) -> ZServeCache:
    """A pre-filled default-geometry in-process service."""
    return prefill(ZServeCache(ServeConfig()), inputs)


def _client(backend: Any, keys: list, ops: bytes, inputs: dict,
            barrier: threading.Barrier, out: list, slot: int) -> None:
    """One closed-loop client: the next request waits for the reply."""
    values, expected = inputs["values"], inputs["expected"]
    get, put, invalidate = backend.get, backend.put, backend.invalidate
    latencies: list[int] = []
    record = latencies.append
    hits = gets = dels_hit = failed = 0
    error = ""
    stamp = perf_counter_ns
    barrier.wait()
    prev = stamp()
    for key, op in zip(keys, ops):
        try:
            if op == GET:
                gets += 1
                hit, value = get(key)
                if hit:
                    hits += 1
                    if value != expected[key]:
                        failed += 1
                        error = error or f"HIT {key!r} returned {value!r}"
                else:
                    put(key, values[key])  # cache-aside fill, inside the request
            elif op == PUT:
                put(key, values[key])
            elif invalidate(key):
                dels_hit += 1
        except Exception as exc:  # a request fails on any exception or ERR
            failed += 1
            error = error or f"{type(exc).__name__}: {exc}"
        now = stamp()
        record(now - prev)
        prev = now
    out[slot] = (latencies, hits, gets, dels_hit, failed, error)


@dataclass
class LoopResult:
    elapsed_s: float
    latencies_ns: list
    requests: int
    hits: int
    gets: int
    #: DELs that removed an entry (the service does not count them)
    dels_hit: int
    failed: int
    error: str


def closed_loop(backends: list, streams: list, inputs: dict) -> LoopResult:
    """Run one client thread per stream; time barrier release to last join."""
    out: list = [None] * len(streams)
    barrier = threading.Barrier(len(streams) + 1)
    threads = [
        threading.Thread(
            target=_client, args=(b, ks, ops, inputs, barrier, out, i), daemon=True
        )
        for i, (b, (ks, ops)) in enumerate(zip(backends, streams))
    ]
    for t in threads:
        t.start()
    barrier.wait()
    start = perf_counter()
    for t in threads:
        t.join()
    elapsed = perf_counter() - start
    latencies = [x for o in out for x in o[0]]  # sorted once, by _phase
    return LoopResult(
        elapsed, latencies, len(latencies),
        *(sum(o[i] for o in out) for i in (1, 2, 3, 4)),
        next((o[5] for o in out if o[5]), ""),
    )


def _percentile_us(ordered_ns: list, q: float) -> float:
    return ordered_ns[min(len(ordered_ns) - 1, int(q * len(ordered_ns)))] / 1000.0


#: the gating 1-client loop is timed in this many consecutive chunks, so
#: that one run yields several calibrated samples of each
CHUNKS = 4


def _phase(inputs: dict, streams: list, res: PassResult,
           make: Optional[Callable[[], Any]] = None,
           chunks: int = 1) -> tuple[LoopResult, dict, Clock]:
    """One closed-loop phase on fresh state, with its consistency check.

    The streams are served in ``chunks`` consecutive closed loops on the
    same state, each one timed segment. Returns the loop result with its
    times (elapsed, latencies) in calibrated units, the counter deltas
    over the phase, and the clock.
    """
    server = inputs["server"]
    if server is not None:
        control = ServeClient(server.host, server.port)
        backends = [TcpBackend(server) for _ in streams]
        before = control.stats()
    else:
        svc = (make or (lambda: fresh_service(inputs)))()
        backends = [svc] * len(streams)
        before = svc.snapshot()
    clock = Clock()
    parts = []
    for c in range(chunks):
        part = [
            (ks[c * len(ks) // chunks:(c + 1) * len(ks) // chunks],
             ops[c * len(ks) // chunks:(c + 1) * len(ks) // chunks])
            for ks, ops in streams
        ]
        with clock.segment():
            parts.append(closed_loop(backends, part, inputs))
    scale = clock.cal_s / clock.raw_s  # this phase's calibrated s per host s
    loop = LoopResult(
        sum(p.elapsed_s for p in parts) * scale,
        sorted(x * scale for p in parts for x in p.latencies_ns),
        *(sum(getattr(p, f) for p in parts)
          for f in ("requests", "hits", "gets", "dels_hit", "failed")),
        next((p.error for p in parts if p.error), ""),
    )
    res.attempted += loop.requests
    if loop.failed:
        res.fail(loop.failed, loop.error)
    if server is not None:
        after = control.stats()
        for b in backends:
            b.client.close()
        control.close()
        if after["entries"] > after["capacity"]:
            res.fail(loop.requests - loop.failed, "server holds more than capacity")
    else:
        after = svc.snapshot()
        check = getattr(svc, "check_consistency", None)  # DictLRUServe has none
        if check is not None:
            try:
                check()
            except AssertionError as exc:
                res.fail(loop.requests - loop.failed, f"check_consistency: {exc}")
    delta = {
        k: after[k] - before[k]
        for k in after
        if isinstance(after[k], int) and k in before
    }
    return loop, delta, clock


def serve_run(inputs: dict, spans: SpanRecorder) -> PassResult:
    """The 1-client closed loop, then the 2-client one, each on fresh state.

    ``wall_s`` and ``hit_rate`` are the 1-client loop's: one thread
    repeats; two threads contending for the GIL on two CPUs fall into a
    convoy in some runs and not in others (rps 22k or 31k, p99 1.4 ms or
    0.2 ms, same code, same seed), so the 2-client numbers are reported
    but do not gate. One operation = one request; it fails on an
    exception, an ERR reply or a HIT whose value is not f(key); a failed
    consistency check fails every request of its phase.
    """
    del spans  # threads are not traced; see serve_traced
    res = PassResult()
    one, _, clock = _phase(inputs, inputs["one"], res, chunks=CHUNKS)
    two, d2, _ = _phase(inputs, inputs["two"], res)
    res.timed(clock)
    res.work = one.requests
    res.hits, res.lookups = one.hits, one.gets
    # Every fill adds an entry or replaces an evicted one; only a DEL
    # that hit removes an entry without a fill.
    fills = d2["entries"] + d2["evictions"] + two.dels_hit
    wasted = d2["stale_retries"] + d2["walk_races"]
    res.values.update({
        "rps": two.requests / two.elapsed_s,
        "rps_1c": one.requests / one.elapsed_s,
        "lat_p50_us": _percentile_us(two.latencies_ns, 0.50),
        "lat_p99_us": _percentile_us(two.latencies_ns, 0.99),
        "serve.fills": fills,
        "serve.evictions": d2["evictions"],
        "serve.relocs_per_fill": d2["relocations"] / fills if fills else 0.0,
        "serve.stale_retries": d2["stale_retries"],
        "serve.walk_races": d2["walk_races"],
        "serve.fallback_fills": d2["fallback_fills"],
        "serve.recency_dropped": d2["recency_dropped"],
        "serve.commit_useful_ratio": fills / (fills + wasted) if fills else 1.0,
    })
    return res


def dictlru_run(inputs: dict) -> PassResult:
    """The same 2-client streams against ``dict``+LRU at equal capacity."""
    res = PassResult()
    loop, _, _ = _phase(
        dict(inputs, server=None), inputs["two"], res,
        make=lambda: prefill(DictLRUServe(inputs["capacity"]), inputs),
    )
    res.values["ref.dictlru_rps"] = loop.requests / loop.elapsed_s
    res.values["ref.dictlru_hit_rate"] = loop.hits / loop.gets if loop.gets else 0.0
    return res


def serve_traced(inputs: dict, spans: SpanRecorder) -> PassResult:
    """One client, one thread, a span around every call into the layer.

    In process the harness routes by hand (``key_address`` →
    ``svc.shards[address % n]`` → ``shard.get`` → ``shard.put`` /
    ``shard.invalidate``) so each step is its own span; over TCP the span
    is the socket round trip of each protocol line.
    """
    res = PassResult()
    keys, ops = inputs["one"][0]
    values, expected = inputs["values"], inputs["expected"]
    begin, finish = spans.begin, spans.finish
    outcome = bytearray(len(keys))  # 1 = GET hit, 2 = GET miss (+fill)
    server = inputs["server"]
    if server is not None:
        backend: Any = TcpBackend(server)
    else:
        svc = fresh_service(inputs)
        shards, n = svc.shards, len(svc.shards)
    start = perf_counter()
    root = begin("pass.serve")
    for i, (key, op) in enumerate(zip(keys, ops)):
        req = begin("request", i)
        hit = None  # stays None for PUT and DEL
        if server is not None:
            if op == GET:
                s = begin("serve.tcp_get")
                hit, value = backend.get(key)
                finish(s)
                if not hit:
                    s = begin("serve.tcp_put")
                    backend.put(key, values[key])
                    finish(s)
            elif op == PUT:
                s = begin("serve.tcp_put")
                backend.put(key, values[key])
                finish(s)
            else:
                s = begin("serve.tcp_del")
                backend.invalidate(key)
                finish(s)
        else:
            s = begin("serve.key_address")
            address = key_address(key)
            finish(s)
            shard = shards[address % n]
            if op == GET:
                s = begin("serve.shard_get")
                value = shard.get(address)
                finish(s)
                hit = value is not SHARD_MISS
                if not hit:
                    s = begin("serve.shard_put")
                    shard.put(address, key, values[key])
                    finish(s)
            elif op == PUT:
                s = begin("serve.shard_put")
                shard.put(address, key, values[key])
                finish(s)
            else:
                s = begin("serve.shard_invalidate")
                shard.invalidate(address)
                finish(s)
        finish(req)
        if hit is not None:
            outcome[i] = 1 if hit else 2
            if hit and value != expected[key]:
                res.fail(1, f"HIT {key!r} returned {value!r}")
    finish(root)
    res.wall_s = res.raw_s = perf_counter() - start
    res.attempted = res.work = len(keys)
    if server is not None:
        backend.client.close()
    else:
        try:
            svc.check_consistency()
        except AssertionError as exc:
            res.fail(len(keys) - res.failed, f"check_consistency: {exc}")
    res.values["outcome"] = outcome
    return res
