"""One shard: a lock, a two-phase zcache, and the payload store.

The concurrency discipline (the package docstring has the full story):
``get`` is a *lock-free* payload-dict read — the hot path of a cache
service never touches the shard lock; ``put`` walks off-lock and
commits under the lock, retrying when the walk went stale;
``invalidate`` is a short locked removal. The zcache itself is
single-threaded code — the shard's job is to guarantee every
*mutating* call happens under its lock, and that the only things it
ever does off-lock are pure reads: the payload-dict lookup, and
:meth:`~repro.core.twophase.TwoPhaseZCache.prepare_fill`, whose result
is re-validated before use.

Lock-free reads cannot update the replacement policy directly (the
policy raises on non-resident touches, and a read can race an
eviction), so hits are recorded in a bounded *recency buffer* — a
plain list appended under the GIL's atomicity — and replayed into the
policy by the next writer that holds the lock. A read concurrent with
an eviction or invalidate of the same key may return the just-removed
value: the standard cache-service read race (the value was live when
the request began), never corruption.

Payloads live in a plain dict keyed by block address, maintained in
lockstep with array residency: the shard's cache drops a victim's
payload at the controller's eviction choke point
(:meth:`~repro.core.controller.Cache._evict`), so no two-phase path
(plain eviction, phase-2 win, stale re-walk with an extra victim) can
evict a block and keep its payload.
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from typing import Any, Callable, Optional

from repro.core.twophase import StaleWalkError, TwoPhaseZCache
from repro.core.zcache import ZCacheArray
from repro.obs import ObsContext
from repro.replacement import make_policy

#: value returned by :meth:`CacheShard.get` on a miss — a dedicated
#: sentinel so ``None`` remains a storable value
MISS = object()

#: lock-free read hits buffered for policy replay before writers start
#: dropping them (a read-only burst must not grow the buffer unboundedly)
RECENCY_CAP = 1024


def payload_digest(value: object) -> Optional[bytes]:
    """Integrity fingerprint for byte-like payloads (else None).

    An 8-byte blake2b over the stored bytes, recomputed and compared
    on every read when fingerprinting is enabled: a mismatch means the
    payload store was corrupted — exactly the cross-thread damage the
    concurrency discipline exists to prevent, surfaced at the moment
    a client would have consumed it. For payloads past ~2 KiB CPython
    hashes with the GIL released, so where this digest runs relative
    to the shard lock is the benchmark's coarse- vs fine-grained
    locking story in miniature.
    """
    if isinstance(value, (bytes, bytearray, memoryview)):
        return hashlib.blake2b(value, digest_size=8).digest()
    return None


class _ShardCache(TwoPhaseZCache):
    """The shard's zcache: an evicted block takes its payload with it.

    The controller reports at most one eviction per ``AccessResult``,
    but the two-phase stale-recovery path can evict *two* blocks for
    one fill; the choke point is the one place every eviction, on
    every path, passes through. The payload store is reached through
    the shard at call time (not captured) because the lockset
    sanitizer swaps in an instrumented dict.
    """

    #: the owning shard, set by :class:`CacheShard` after construction
    #: — a weak proxy, so that shard and cache do not form a cycle and
    #: a dropped service is freed at once, not at the next full GC
    shard: "CacheShard"

    def _evict(self, victim: int) -> bool:
        self.shard._entries.pop(victim, None)
        return super()._evict(victim)


class CacheShard:
    """A single-lock partition of the service's key space.

    Parameters
    ----------
    num_ways, lines_per_way, levels, hash_kind, hash_seed:
        Geometry of the backing :class:`~repro.core.zcache.ZCacheArray`.
    policy:
        Replacement policy name (see :func:`repro.replacement.make_policy`).
    two_phase:
        True (default) runs the off-lock walk / commit-under-lock
        discipline; False holds the lock across the whole access —
        the "naive single-lock" baseline the benchmark compares against.
    max_retries:
        Stale-plan retries before falling back to walking under the
        lock. The fallback cannot go stale, so a put always completes.
    obs:
        Optional observability context; the cache's counters register
        under it and the shard adds ``walk_races`` (off-lock walks that
        failed mid-read), ``commit_stale`` (plans rejected by the
        freshness check) and ``fallback_fills`` (retry budget spent).
    wrap_array:
        Optional hook applied to the array before the cache is built —
        the soak harness passes the ZSan sanitizer here.
    fingerprint:
        When True, byte-like payloads are stored with a
        :func:`payload_digest` and every read re-verifies it. In
        two-phase mode the digest work runs off-lock; in the naive
        locked mode it runs under the lock, like everything else.
    """

    def __init__(
        self,
        num_ways: int = 4,
        lines_per_way: int = 256,
        levels: int = 2,
        hash_kind: str = "mix",
        hash_seed: int = 0,
        policy: str = "lru",
        two_phase: bool = True,
        max_retries: int = 8,
        obs: Optional[ObsContext] = None,
        wrap_array: Optional[Callable[[ZCacheArray], Any]] = None,
        name: str = "shard",
        fingerprint: bool = False,
    ) -> None:
        array = ZCacheArray(
            num_ways,
            lines_per_way,
            levels=levels,
            hash_kind=hash_kind,
            hash_seed=hash_seed,
        )
        # A wrapped array (the ZSan sanitizer proxy) ducks as a
        # ZCacheArray: it forwards every attribute, and TwoPhaseZCache
        # only isinstance-checks the unwrapped class.
        wrapped: Any = array if wrap_array is None else wrap_array(array)
        self.cache = _ShardCache(
            wrapped, make_policy(policy), name=name, obs=obs
        )
        self.cache.shard = weakref.proxy(self)
        self.lock = threading.Lock()
        self.two_phase = two_phase
        self.max_retries = max_retries
        self.fingerprint = fingerprint
        self._entries: dict[int, tuple[object, object, Optional[bytes]]] = {}
        self._recency: list[int] = []
        registry = self.cache.stats.registry
        self._c_walk_races = registry.counter("walk_races")
        self._c_commit_stale = registry.counter("commit_stale")
        self._c_fallback_fills = registry.counter("fallback_fills")
        # Read-path accounting lives at the shard (the zcache never
        # sees lock-free hits). Increments on the lock-free path are
        # best-effort under concurrency: a lost ``+=`` costs a count,
        # never correctness.
        self._c_read_hits = registry.counter("read_hits")
        self._c_read_misses = registry.counter("read_misses")
        # Hits observed while the recency buffer was already full: the
        # policy never learns about them. A steadily climbing value
        # means writers drain too rarely for the read rate.
        self._c_recency_dropped = registry.counter("recency_dropped")

    # -- the service operations ---------------------------------------------
    def get(self, address: int) -> object:
        """Payload for ``address``, or the :data:`MISS` sentinel.

        A cache-aside read: a miss is counted but never allocates —
        the caller reacts (usually by computing the value and calling
        :meth:`put`). In two-phase mode this takes no lock at all:
        the payload dict mirrors residency and a single ``dict.get``
        is atomic under the GIL. The hit is queued in the recency
        buffer for the next writer to replay into the policy.
        """
        if self.two_phase:
            entry = self._entries.get(address)
            if entry is None:
                self._c_read_misses.value += 1
                return MISS
            self._c_read_hits.value += 1
            if len(self._recency) < RECENCY_CAP:
                self._recency.append(address)
            else:
                self._c_recency_dropped.value += 1
            self._verify(address, entry)
            return entry[1]
        with self.lock:
            if self.cache.probe(address):
                entry = self._entries[address]
                # Naive mode verifies under the lock on purpose: the
                # whole read inside one critical section is the
                # baseline two-phase mode exists to beat.
                self._verify(address, entry)
                self._c_read_hits.value += 1
                return entry[1]
            self._c_read_misses.value += 1
            return MISS

    def _verify(self, address: int, entry: tuple) -> None:
        """Re-check the payload fingerprint recorded at install time."""
        fp = entry[2]
        if fp is not None and payload_digest(entry[1]) != fp:
            raise AssertionError(
                f"payload fingerprint mismatch for block {address:#x}: "
                "the payload store was corrupted after install"
            )

    def put(self, address: int, key: object, value: object) -> None:
        """Install (or overwrite) the payload for ``address``.

        The fingerprint (when enabled) is the expensive part of a
        write: two-phase mode computes it before touching the lock,
        the naive mode computes it inside — the whole operation under
        one lock is precisely what "naive" means.
        """
        if not self.two_phase:
            with self.lock:
                # Digest under the lock: that IS the naive baseline.
                fp = payload_digest(value) if self.fingerprint else None
                self.cache.access(address, is_write=True)
                self._sync_entries(address, key, value, fp)
            return
        fp = payload_digest(value) if self.fingerprint else None
        for _ in range(self.max_retries):
            # Fast path under the lock: already resident → a plain hit.
            with self.lock:
                self._drain_recency()
                if address in self.cache:
                    self.cache.access(address, is_write=True)
                    self._sync_entries(address, key, value, fp)
                    return
            # Off-lock walk. A concurrent commit can tear the snapshot
            # mid-read; anything the walk (or the sanitizer's walk
            # check) throws is a stale read, not corruption — phase 1
            # mutates nothing. InvariantViolation subclasses
            # RuntimeError, so this intentionally absorbs it *here
            # only*: violations raised under the lock propagate.
            try:
                plan = self.cache.prepare_fill(address)
            except RuntimeError:
                self._c_walk_races.value += 1
                continue
            with self.lock:
                self._drain_recency()
                try:
                    self.cache.commit_prepared(address, plan, is_write=True)
                except StaleWalkError:
                    self._c_commit_stale.value += 1
                    continue
                self._sync_entries(address, key, value, fp)
                return
        # Retry budget spent (heavy contention): walk under the lock.
        with self.lock:
            self._drain_recency()
            self._c_fallback_fills.value += 1
            self.cache.access(address, is_write=True)
            self._sync_entries(address, key, value, fp)

    def invalidate(self, address: int) -> bool:
        """Remove ``address``; True when it was resident."""
        with self.lock:
            self._drain_recency()
            resident = address in self.cache
            self.cache.invalidate(address)
            self._entries.pop(address, None)
            return resident

    # -- bookkeeping (caller holds the lock) --------------------------------
    def _drain_recency(self) -> None:
        """Replay buffered lock-free read hits into the policy.

        Swapping the list out is atomic under the GIL; a reader that
        appends around the swap lands in whichever list its load of
        ``self._recency`` resolved to, so no hit is ever lost — at
        worst it is replayed one drain late. Addresses evicted since
        the read are skipped (the policy raises on non-resident
        touches).
        """
        buf = self._recency
        if not buf:
            return
        self._recency = []
        cache = self.cache
        touch = cache.policy.on_access
        for addr in buf:
            if addr in cache:
                touch(addr, False)

    def _sync_entries(
        self,
        address: int,
        key: object,
        value: object,
        fp: Optional[bytes] = None,
    ) -> None:
        if address in self.cache:
            self._entries[address] = (key, value, fp)
        else:
            # Pinned-overflow bypass cannot happen (the service never
            # pins), but stay correct if it ever does.
            self._entries.pop(address, None)

    # -- introspection -------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def check_consistency(self) -> None:
        """Assert payload store and array residency agree (tests/soak).

        Callers must quiesce traffic first; takes the lock itself.
        """
        with self.lock:
            resident = set(self.cache.resident())
            stored = set(self._entries)
            if resident != stored:
                missing = resident - stored
                orphaned = stored - resident
                raise AssertionError(
                    f"shard payload store out of sync: {len(missing)} "
                    f"resident without payload, {len(orphaned)} payloads "
                    f"without a block"
                )
