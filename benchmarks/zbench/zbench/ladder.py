"""The per-layer micro-rungs, on standalone 4x512-line arrays.

Each rung times calls into one public function of one layer, as its own
span, over addresses sampled from the workload's own input. A rung's
value is the median over ``BATCHES`` batches of (batch time / calls), so
one descheduled batch does not move it. Rungs that must prepare state
between calls (a commit needs a fresh walk) time each call on its own.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter_ns
from typing import Any, Callable, Iterable, Sequence

from repro.assoc import TrackedPolicy
from repro.core import Cache, RandomCandidatesArray, SetAssociativeArray, TwoPhaseZCache
from repro.hashing import H3Hash, MixHash
from repro.hashing.mixers import splitmix64
from repro.replacement import LRU
from repro.serve import CacheShard, ServeConfig, ZServeCache
from repro.serve.server import ServeClient, ZServeServer
from repro.serve.service import key_address
from repro.sim import CMPConfig
from repro.sim.directory import Directory
from repro.workloads import get_workload

from zbench.passes import ARRAYS, PassResult, check_l2
from zbench.spans import SpanRecorder

BATCHES = 5
#: lines in every standalone array (4 ways x 512)
CAPACITY = 2048
_MASK47 = (1 << 47) - 1


def distinct(sample: Iterable[int], count: int) -> list[int]:
    """``count`` distinct addresses: the sample's own first, then derived.

    A workload whose input has fewer distinct addresses than a rung needs
    (serve_hot has 2048 keys) is topped up with splitmix64 images of the
    sample, so every workload runs every rung.
    """
    seen: dict[int, None] = dict.fromkeys(sample)
    base = list(seen)
    salt = 1
    while len(seen) < count:
        for a in base:
            seen.setdefault(splitmix64(a + salt) & _MASK47)
            if len(seen) >= count:
                break
        salt += 1
    return list(seen)[:count]


class Rungs:
    """Runs rungs under one recorder and collects their values."""

    def __init__(self, spans: SpanRecorder, ops: int) -> None:
        self.spans = spans
        #: calls per batch
        self.ops = ops
        self.values: dict[str, float] = {}

    def batched(self, name: str, fn: Callable[[Any], Any],
                batches: Sequence[Sequence[Any]], scale: float = 1.0) -> None:
        """``name`` = median ns (x ``scale``) per ``fn(item)`` over batches."""
        per_op = []
        for items in batches:
            sid = self.spans.begin(name)
            for item in items:
                fn(item)
            self.spans.finish(sid)
            per_op.append((self.spans.end[sid] - self.spans.start[sid]) / len(items))
        self.values[name] = median(per_op) * scale

    def each(self, name: str, fn: Callable[[Any], Any], items: Sequence[Any],
             before: Callable[[Any], Any] = lambda item: item,
             after: Callable[[Any, Any], None] = lambda item, out: None,
             scale: float = 1.0) -> None:
        """``name`` = median ns per ``fn(before(item))``, each timed alone;
        ``before`` and ``after`` run untimed."""
        clock = perf_counter_ns
        samples = []
        with self.spans.span(name):
            for item in items:
                arg = before(item)
                t0 = clock()
                out = fn(arg)
                samples.append(clock() - t0)
                after(item, out)
        self.values[name] = median(samples) * scale

    def split(self, items: Sequence[Any]) -> list[Sequence[Any]]:
        """``BATCHES`` consecutive batches of ``ops`` items."""
        return [items[i * self.ops:(i + 1) * self.ops] for i in range(BATCHES)]

    def cycled(self, items: Iterable[Any]) -> list[Sequence[Any]]:
        """The same, from ``items`` repeated until there are enough."""
        pool = list(items)
        need = BATCHES * self.ops
        return self.split((pool * (1 + need // len(pool)))[:need])


def _choose(repl, policy):
    """The controller's victim choice, from the public array/policy API."""
    chosen = repl.first_empty()
    if chosen is None:
        shallowest: dict[int, Any] = {}
        for cand in repl.usable():
            prev = shallowest.get(cand.address)
            if prev is None or cand.level < prev.level:
                shallowest[cand.address] = cand
        chosen = shallowest[policy.select_victim(list(shallowest))]
        policy.on_evict(chosen.address)
    return chosen


def _filled(design: str, fill: Sequence[int], engine: str = "reference") -> Cache:
    cache = Cache(ARRAYS[design][0](), LRU(), engine=engine)
    for a in fill:
        cache.access(a)
    return cache


def run_ladder(spans: SpanRecorder, sample: Sequence[int], keys: Sequence[Any],
               seed: int, ops: int, sim_inputs: dict, checks: PassResult) -> dict[str, float]:
    """Run every rung; returns metric name -> value.

    ``sample`` are block addresses and ``keys`` service keys from the
    workload's own input; ``sim_inputs`` holds a captured trace for the
    BankedL2 rung, whose invariant checks are counted into ``checks``.
    """
    r = Rungs(spans, ops)
    us = 1e-3
    n_fresh = 3 * BATCHES * ops  # walk / commit / access_miss each consume fresh misses
    pool = distinct(sample, CAPACITY + CAPACITY // 4 + n_fresh)
    fill, fresh = pool[: CAPACITY + CAPACITY // 4], pool[CAPACITY + CAPACITY // 4:]
    repeat = r.cycled(sample)

    # -- hashing: fresh functions, so memo misses and hits mix as in the input
    r.batched("hashing.h3_ns", H3Hash(512, seed=seed), repeat)
    r.batched("hashing.mix_ns", MixHash(256, seed=seed), repeat)

    # -- replacement / assoc: LRU and TrackedPolicy(LRU) over CAPACITY residents
    resident = fill[:CAPACITY]
    touches = r.cycled(resident)
    lru, tracked = LRU(), TrackedPolicy(LRU())
    for a in resident:
        lru.on_insert(a)
        tracked.on_insert(a)
    r.batched("replacement.lru_touch_ns", lru.on_access, touches)
    for n in (4, 16, 52):
        cands = [resident[i:i + n] for i in range(0, ops, 1)]
        r.batched(f"replacement.select_us.n{n}", lru.select_victim, [cands] * BATCHES, us)
    r.batched("assoc.tracked_touch_ns", tracked.on_access, touches)
    r.each("assoc.tracked_evict_us", tracked.on_evict, resident[:ops],
           after=lambda a, _out: tracked.on_insert(a), scale=us)

    # -- core + kernels: the same rungs on the reference and the turbo engine
    for d in ARRAYS:
        cache = _filled(d, fill)
        array, policy = cache.array, cache.policy
        misses = iter(fresh)
        walked = [array.build_replacement(a) for a in fresh[:ops]]  # also warms memos
        if d.startswith("z4"):
            r.values[f"core.walk_candidates.{d}"] = (
                sum(len(w.candidates) for w in walked) / len(walked)
            )
        if d == "z4_52":
            stats = array.stats
            r.values["core.walk_repeat_share.z4_52"] = stats.repeats / stats.candidates
        if d == "z4_16":
            hits = r.cycled(array.resident())
            r.batched("core.lookup_ns", array.lookup, hits)
            r.batched("core.access_hit_ns", cache.access, hits)
        r.batched(f"core.walk_us.{d}", array.build_replacement,
                  r.split(fresh[: BATCHES * ops]), us)
        relocations: list[int] = []

        def plan(a: int, array=array, policy=policy):
            repl = array.build_replacement(a)
            return repl, _choose(repl, policy)

        def commit(args, array=array):
            return array.commit_replacement(*args)

        def installed(a: int, out, policy=policy, relocations=relocations) -> None:
            policy.on_insert(a)
            relocations.append(out.relocations)

        r.each(f"core.commit_us.{d}", commit, [next(misses) for _ in range(ops)],
               before=plan, after=installed, scale=us)
        if d.startswith("z4"):
            r.values[f"core.relocs_per_fill.{d}"] = sum(relocations) / len(relocations)
        r.batched(f"core.access_miss_us.{d}", cache.access,
                  r.split([next(misses) for _ in range(BATCHES * ops)]), us)
        array.check_invariants()

        turbo = _filled(d, fill, engine="turbo")
        if d == "z4_16":
            r.batched("kernels.access_hit_ns", turbo.access, r.cycled(turbo.resident()))
        r.batched(f"kernels.access_miss_us.{d}", turbo.access,
                  r.split(fresh[: BATCHES * ops]), us)

    rc = Cache(RandomCandidatesArray(CAPACITY, 16, seed=seed), TrackedPolicy(LRU()),
               engine="turbo")
    for a in fill:
        rc.access(a)
    r.batched("kernels.rc_tracked_access_us", rc.access, repeat, us)

    two = TwoPhaseZCache(ARRAYS["z4_16"][0](), LRU())
    for a in fill:
        two.access(a)
    r.each("core.prepare_fill_us.z4_16", two.prepare_fill, fresh[:ops], scale=us)
    r.each("core.commit_prepared_us.z4_16",
           lambda args: two.commit_prepared(*args), fresh[:ops],
           before=lambda a: (a, two.prepare_fill(a)), scale=us)

    # -- workloads / sim: stream generation, one L1, the directory, the L2
    cfg = CMPConfig()
    stream = get_workload("canneal").core_stream(0, cfg.l2_blocks, seed=seed,
                                                 num_cores=cfg.num_cores)
    streamed: list[int] = []
    r.batched("workloads.stream_ns", lambda _: streamed.append(next(stream).address),
              r.split(range(BATCHES * ops)))
    l1 = Cache(SetAssociativeArray(cfg.l1_ways, cfg.l1_blocks // cfg.l1_ways), LRU(), name="L1")
    r.batched("sim.l1_access_ns", l1.access, r.split(streamed))  # L1 hits included
    directory = Directory(cfg.num_cores)

    def share(a: int) -> None:
        directory.fill(a, a % cfg.num_cores, False)
        directory.l1_eviction(a, a % cfg.num_cores)
    r.batched("sim.directory_ns", share, repeat, 0.5)  # two directory calls per item
    for d in ARRAYS:
        with spans.span(f"sim.l2_access_us.{d}"):
            seconds, n = check_l2(sim_inputs, d, checks)
        r.values[f"sim.l2_access_us.{d}"] = seconds / n * 1e6

    # -- serve: routing, one shard, the service, dispatch, a loopback ping
    int_keys = [k if isinstance(k, int) else key_address(k) for k in keys]
    str_keys = [k if isinstance(k, str) else f"{k:x}" for k in keys]
    r.batched("serve.key_address_int_ns", key_address, r.cycled(int_keys))
    r.batched("serve.key_address_str_ns", key_address, r.cycled(str_keys))
    shard_cfg = ServeConfig()
    shard = CacheShard(shard_cfg.num_ways, shard_cfg.lines_per_way, shard_cfg.levels,
                       shard_cfg.hash_kind)
    shard_fill = fill[: shard_cfg.num_ways * shard_cfg.lines_per_way * 5 // 4]
    for a in shard_fill:
        shard.put(a, a, a)
    held = r.cycled(shard.cache.resident())
    r.batched("serve.shard_get_hit_ns", shard.get, held)
    shard.invalidate(held[0][0])  # a writer: drains the recency buffer the hits filled
    r.batched("serve.shard_get_miss_ns", shard.get, r.split(fresh[: BATCHES * ops]))
    r.batched("serve.shard_put_overwrite_us", lambda a: shard.put(a, a, a),
              r.split(list(shard.cache.resident())[: ops] * BATCHES), us)
    r.batched("serve.shard_put_fill_us", lambda a: shard.put(a, a, a),
              r.split(fresh[: BATCHES * ops]), us)
    r.each("serve.shard_invalidate_us", shard.invalidate,
           list(shard.cache.resident())[:ops], scale=us)
    shard.check_consistency()
    svc = ZServeCache(shard_cfg)
    for k in str_keys[: shard_cfg.capacity]:
        svc.put(k, k)
    gets = r.cycled(str_keys)
    r.batched("serve.service_get_ns", svc.get, gets)
    with ZServeServer(svc, port=0) as server:
        r.batched("serve.dispatch_get_us", server.dispatch,
                  [[f"GET {k}" for k in batch] for batch in gets], us)
        thread = server.serve_in_background()
        try:
            with ServeClient(*server.address) as client:
                r.batched("serve.tcp_ping_rtt_us", lambda _: client.ping(),
                          r.split(range(BATCHES * ops)), us)
        finally:
            server.shutdown()
            thread.join()
    return r.values
