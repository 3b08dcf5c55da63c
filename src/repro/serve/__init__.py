"""ZServe: the zcache as a real concurrent key→value cache service.

Everything below :mod:`repro.core` *simulates* caches; this package
turns the two-phase zcache into a working in-memory cache that stores
real payloads and serves concurrent traffic. The design follows
"Limited Associativity Makes Concurrent Software Caches a Breeze"
(arXiv 2109.03021): limited-associativity buckets make locking cheap,
and the zcache walk is the extreme case — candidate collection touches
many positions but *mutates nothing*, so it can run entirely outside
the lock. Only the relocation commit needs mutual exclusion:

1. **off-lock walk** — :meth:`~repro.core.twophase.TwoPhaseZCache.
   prepare_fill` collects replacement candidates with no lock held;
2. **commit under the shard lock** — :meth:`~repro.core.twophase.
   TwoPhaseZCache.commit_prepared` re-validates every recorded
   (position, address) pair and either applies the relocations or
   raises :class:`~repro.core.twophase.StaleWalkError`;
3. **bounded retry** — a stale plan is re-prepared a few times, then
   the shard falls back to walking under the lock (always succeeds).

Reads never lock at all: the payload dict mirrors array residency, a
single ``dict.get`` is atomic under the GIL, and read recency is
buffered and replayed into the replacement policy by the next writer
(the Breeze paper's deferred-metadata trick). A read racing an
eviction of the same key may return the just-removed value — ordinary
cache-service staleness, never corruption.

Nor does a request on a recently seen key hash it: the service keeps
a plain dict memo of :func:`~repro.serve.service.key_address`, capped
at the cache's capacity and emptied when full. It holds only keys of
an exact ``int``/``str``/``bytes`` type (no subclass can bring its own
equality into it), and every value is the pure function's, so it needs
no lock: a racing reader finds a key's true address or none.

Layout
------
- :mod:`repro.serve.shard` — one lock + one ``TwoPhaseZCache`` +
  payload storage; the two-phase discipline lives here.
- :mod:`repro.serve.service` — :class:`ZServeCache`: hash-partitioned
  shards and the key-address memo behind a get/put/invalidate API.
- :mod:`repro.serve.baseline` — the plain dict+LRU competitor.
- :mod:`repro.serve.loadgen` — replays the 72 workload proxies as
  concurrent request streams and reports throughput + latency
  percentiles.
- :mod:`repro.serve.server` — a threaded TCP front end speaking a
  one-line text protocol, plus a small client.
- :mod:`repro.serve.cli` — ``zcache-repro serve`` / ``loadgen``.
"""

from repro.serve.baseline import DictLRUServe
from repro.serve.loadgen import LoadGenConfig, LoadGenResult, run_loadgen
from repro.serve.service import ServeConfig, ZServeCache
from repro.serve.shard import CacheShard

__all__ = [
    "CacheShard",
    "ServeConfig",
    "ZServeCache",
    "DictLRUServe",
    "LoadGenConfig",
    "LoadGenResult",
    "run_loadgen",
]
