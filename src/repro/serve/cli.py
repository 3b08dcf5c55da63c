"""ZServe subcommands: ``zcache-repro serve`` / ``zcache-repro loadgen``.

``serve`` boots the TCP front end and blocks until interrupted;
``loadgen`` replays a workload proxy in-process against a chosen
backend and prints the throughput/latency report (add ``--json`` for
machine-readable output, ``--sanitize`` to wrap every shard array in
the ZSan runtime sanitizer).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from typing import Any, Optional

from repro.serve.loadgen import LoadGenConfig, ServeBackend, run_loadgen
from repro.serve.service import MODES, ServeConfig, ZServeCache


def _add_geometry_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--shards", type=int, default=4,
        help="number of hash partitions (default 4)",
    )
    parser.add_argument(
        "--ways", type=int, default=4,
        help="zcache ways per shard (default 4)",
    )
    parser.add_argument(
        "--lines", type=int, default=256,
        help="lines per way per shard (default 256)",
    )
    parser.add_argument(
        "--levels", type=int, default=2,
        help="replacement-walk depth (default 2)",
    )
    parser.add_argument(
        "--policy", type=str, default="lru",
        help="replacement policy name (default lru)",
    )
    parser.add_argument(
        "--mode", choices=MODES, default="twophase",
        help="'twophase' = off-lock walk, commit under the shard lock; "
        "'locked' = whole access under the lock (naive baseline)",
    )
    parser.add_argument(
        "--fingerprint", action="store_true",
        help="store + re-verify an integrity digest for byte payloads",
    )


def _config_from_args(args: argparse.Namespace) -> ServeConfig:
    return ServeConfig(
        num_shards=args.shards,
        num_ways=args.ways,
        lines_per_way=args.lines,
        levels=args.levels,
        policy=args.policy,
        mode=args.mode,
        fingerprint=args.fingerprint,
    )


def run_serve_cli(argv: Optional[list[str]] = None) -> int:
    """Boot the TCP server and serve until interrupted."""
    parser = argparse.ArgumentParser(
        prog="zcache-repro serve",
        description="Serve the sharded zcache over TCP (one-line text "
        "protocol: GET/PUT/DEL/STATS/PING).",
    )
    parser.add_argument("--host", type=str, default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=9401,
        help="TCP port (0 = pick a free one; default 9401)",
    )
    _add_geometry_args(parser)
    args = parser.parse_args(argv)

    from repro.serve.server import ZServeServer

    cache = ZServeCache(_config_from_args(args))
    with ZServeServer(cache, host=args.host, port=args.port) as server:
        host, port = server.address
        print(
            f"zserve listening on {host}:{port} "
            f"({args.shards} shards x {args.ways}x{args.lines} "
            f"{args.policy}, mode={args.mode})"
        )
        sys.stdout.flush()
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            print("\nshutting down")
    return 0


def run_loadgen_cli(argv: Optional[list[str]] = None) -> int:
    """Replay a workload proxy against an in-process backend."""
    parser = argparse.ArgumentParser(
        prog="zcache-repro loadgen",
        description="Replay one of the 72 workload proxies as concurrent "
        "request traffic and report throughput + latency percentiles.",
    )
    parser.add_argument(
        "--workload", type=str, default="gcc",
        help="workload proxy name (default gcc; see 'zcache-repro roster')",
    )
    parser.add_argument(
        "--workers", type=int, default=4,
        help="concurrent client threads (default 4)",
    )
    parser.add_argument(
        "--requests", type=int, default=25_000,
        help="requests per worker (default 25000)",
    )
    parser.add_argument(
        "--footprint", type=int, default=4096,
        help="workload footprint scale in blocks (default 4096)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--payload-bytes", type=int, default=0,
        help="store byte payloads of this size instead of small ints "
        "(combine with --fingerprint for per-read integrity checks)",
    )
    parser.add_argument(
        "--backend", choices=("zserve", "dictlru"), default="zserve",
        help="'zserve' = the sharded zcache service; 'dictlru' = the "
        "single-lock OrderedDict baseline at equal capacity",
    )
    parser.add_argument(
        "--sanitize", action="store_true",
        help="wrap every shard array in the ZSan runtime sanitizer "
        "(zserve backend only; slower, catches invariant violations)",
    )
    parser.add_argument(
        "--json", type=str, default=None, metavar="PATH",
        help="also write the report as JSON ('-' = stdout)",
    )
    _add_geometry_args(parser)
    args = parser.parse_args(argv)

    cfg = _config_from_args(args)
    backend: ServeBackend
    if args.backend == "dictlru":
        from repro.serve.baseline import DictLRUServe

        backend = DictLRUServe(capacity=cfg.capacity)
    else:
        wrap = None
        if args.sanitize:
            from repro.analysis.sanitizer import SanitizedArray

            wrap = partial(SanitizedArray, seed=args.seed)
        backend = ZServeCache(cfg, wrap_array=wrap)

    result = run_loadgen(
        backend,
        LoadGenConfig(
            workload=args.workload,
            num_workers=args.workers,
            requests_per_worker=args.requests,
            footprint_blocks=args.footprint,
            seed=args.seed,
            payload_bytes=args.payload_bytes,
        ),
    )
    payload: dict[str, Any] = result.to_dict()
    print(
        f"{result.workload}: {result.requests} requests / "
        f"{result.workers} workers in {result.elapsed_s:.2f}s = "
        f"{result.throughput_rps:,.0f} req/s"
    )
    print(
        f"  read hit rate {result.hit_rate:.3f}  latency p50 "
        f"{result.p50_us:.1f}us  p95 {result.p95_us:.1f}us  "
        f"p99 {result.p99_us:.1f}us"
    )
    if args.backend == "zserve":
        assert isinstance(backend, ZServeCache)
        print(
            f"  stale_retries {backend.stale_retries}  walk_races "
            f"{backend.walk_races}  fallback_fills {backend.fallback_fills}"
        )
        backend.check_consistency()
    if args.json == "-":
        json.dump(payload, sys.stdout, indent=1)
        print()
    elif args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=1)
        print(f"JSON written to {args.json}")
    return 0
