#!/usr/bin/env python3
"""CI gate: the ZServe stack serves real traffic without violations.

Four checks, each exercising a different layer of the serve stack:

1. **Sanitized concurrent replay** — a 2-shard service with every
   array wrapped in the ZSan runtime sanitizer and payload
   fingerprinting on, replaying a workload proxy at concurrency 4.
   Any ``InvariantViolation`` (a walk or commit that broke a zcache
   invariant) or fingerprint mismatch (a corrupted payload) aborts the
   run. Asserts a non-zero hit rate — a smoke that never hits tests
   nothing — and full payload/residency agreement afterwards.
2. **TCP front end** — boots the threaded server on a free port,
   round-trips PUT/GET/DEL/STATS through four concurrent client
   connections, and checks the service-side consistency after.
3. **Naive-mode parity** — the same sequential traffic through
   ``mode="locked"`` lands the same resident set as two-phase mode
   (same geometry, same seeds): the concurrency discipline must not
   change what the cache *does*, only how it locks.
4. **Dynamic lockset checker** — ZRace's Eraser-style sanitizer
   (:mod:`repro.analysis.lockset`) instruments a shard, drives
   threaded traffic through it, and must come back with zero reports;
   then a shard whose ``put`` deliberately skips the lock must be
   flagged as a lockset race. The detector proving it *can* fire is
   what makes its silence on the real shard evidence.

Exit 0 when everything holds, 1 with a message otherwise. Scales are
small on purpose — ZBench's ``serve_hot``/``serve_pressure`` workloads
carry the timing; this is the fast always-on gate.

Usage::

    python scripts/serve_smoke.py [--requests N] [--workers N]
"""

from __future__ import annotations

import argparse
import sys
import threading
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.sanitizer import make_wrapper  # noqa: E402
from repro.serve.loadgen import LoadGenConfig, run_loadgen  # noqa: E402
from repro.serve.server import ServeClient, ZServeServer  # noqa: E402
from repro.serve.service import ServeConfig, ZServeCache  # noqa: E402


def check_sanitized_replay(requests: int, workers: int) -> str:
    """Fail on any invariant violation / fingerprint mismatch / stall."""
    svc = ZServeCache(
        ServeConfig(
            num_shards=2, num_ways=4, lines_per_way=64,
            mode="twophase", fingerprint=True,
        ),
        wrap_array=make_wrapper(seed=7),
    )
    result = run_loadgen(
        svc,
        LoadGenConfig(
            workload="canneal",
            num_workers=workers,
            requests_per_worker=requests,
            footprint_blocks=1_024,
            seed=7,
            payload_bytes=64,
        ),
    )
    if result.hit_rate <= 0.0:
        raise AssertionError("smoke replay never hit — nothing was tested")
    svc.check_consistency()
    for shard in svc.shards:
        shard.cache.array.final_check()
    return (
        f"replay: {result.requests} req @ {workers} workers, "
        f"hit {result.hit_rate:.3f}, "
        f"{svc.stale_retries} stale retries, 0 violations"
    )


def check_tcp_front_end() -> str:
    """Round-trip the line protocol through concurrent connections."""
    cache = ZServeCache(ServeConfig(num_shards=2, lines_per_way=32))
    errors: list[BaseException] = []

    def hammer(host: str, port: int, base: int) -> None:
        try:
            with ServeClient(host, port) as client:
                for i in range(50):
                    key = f"k{(base * 31 + i) % 150}"
                    client.put(key, f"v{i}")
                    client.get(key)
                assert client.ping()
        except BaseException as exc:  # surfaced below
            errors.append(exc)

    with ZServeServer(cache, port=0) as server:
        server.serve_in_background()
        host, port = server.address
        with ServeClient(host, port) as client:
            client.put("smoke", "1")
            if client.get("smoke") != "1":
                raise AssertionError("PUT/GET round-trip failed")
            if client.delete("smoke") is not True:
                raise AssertionError("DEL of a live key must return True")
        threads = [
            threading.Thread(target=hammer, args=(host, port, t))
            for t in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
        with ServeClient(host, port) as client:
            stats = client.stats()
        server.shutdown()
    cache.check_consistency()
    return f"tcp: 4 connections, {stats['hits']} hits, consistent"


def check_mode_parity() -> str:
    """Sequential traffic: locked and two-phase land identical state."""
    caches = {
        mode: ZServeCache(ServeConfig(
            num_shards=2, num_ways=4, lines_per_way=32, mode=mode))
        for mode in ("twophase", "locked")
    }
    for svc in caches.values():
        for i in range(600):
            svc.put(i, i * 3)
    resident = {
        mode: {a for s in svc.shards for a in s.cache.resident()}
        for mode, svc in caches.items()
    }
    if resident["twophase"] != resident["locked"]:
        raise AssertionError(
            "mode parity broken: locked and two-phase resident sets "
            f"differ by {len(resident['twophase'] ^ resident['locked'])} "
            "blocks on identical sequential traffic"
        )
    return f"parity: {len(resident['locked'])} resident blocks identical"


def check_lockset() -> str:
    """Dynamic race detection: clean on the real shard, loud on a bad one."""
    from repro.analysis.lockset import (
        instrumented_replay,
        planted_unlocked_replay,
    )

    clean = instrumented_replay(ops=1_000, threads=4, seed=11)
    if clean.reports:
        raise AssertionError(
            "lockset sanitizer reported on the production shard: "
            + "; ".join(r.detail for r in clean.reports)
        )
    planted = planted_unlocked_replay(ops=800, threads=2, seed=11)
    if not planted.reports:
        raise AssertionError(
            "lockset sanitizer did not flag the planted unlocked shard"
        )
    return (
        f"lockset: {clean.accesses} tracked accesses clean, planted "
        f"race flagged ({planted.reports[0].field})"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=2_500,
                        help="requests per worker in the sanitized replay")
    parser.add_argument("--workers", type=int, default=4)
    args = parser.parse_args(argv)

    for check in (
        lambda: check_sanitized_replay(args.requests, args.workers),
        check_tcp_front_end,
        check_mode_parity,
        check_lockset,
    ):
        try:
            print(f"OK  {check()}")
        except BaseException as exc:
            print(f"FAIL {type(exc).__name__}: {exc}")
            return 1
    print("serve smoke: all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
