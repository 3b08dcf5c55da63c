"""ZServeCache: hash-partitioned shards behind a get/put/invalidate API.

Keys (ints, strings or bytes) hash to a 63-bit block address; the
address picks a shard and doubles as the block identity inside that
shard's zcache. Shard choice and in-shard placement use *independent*
hash bits — the shard index is the address modulo the shard count,
while the zcache ways re-mix the full address — so partitioning does
not correlate with way placement. A key seen recently is not hashed
again: the service memoises :func:`key_address` in a plain dict of at
most ``capacity`` entries, which needs no lock because every value in
it is the pure function's value.

The service exposes the paper-facing knobs (ways, walk levels, policy)
plus the two service-side ones that matter for concurrency: the shard
count and the access mode (``"twophase"`` off-lock walks vs
``"locked"`` naive locking). Everything else — metrics, tracing — is
inherited from the ZScope context handed in.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Optional, Union

from repro.core.base import CacheArray
from repro.core.zcache import ZCacheArray
from repro.hashing.mixers import splitmix64
from repro.obs import ObsContext
from repro.serve.shard import MISS, CacheShard

#: key types the service accepts
Key = Union[int, str, bytes]

_MASK63 = (1 << 63) - 1

#: access-mode names accepted by :class:`ServeConfig`
MODES = ("twophase", "locked")

#: exact key types the address memo holds. A subclass may define its
#: own equality, and ``True``, ``1.0`` or ``numpy.int64(1)`` compare
#: equal to ``1``: such keys are always hashed, never memoised.
MEMO_TYPES = frozenset((int, str, bytes))


def key_address(key: Key) -> int:
    """Deterministic 63-bit block address for a key.

    Ints go through one splitmix64 round (full avalanche — sequential
    keys spread across shards and ways); strings and bytes through an
    8-byte blake2b digest. Both are stable across processes, which the
    checkpointable clients depend on.
    """
    if isinstance(key, bool):
        raise TypeError("bool is not a valid cache key")
    if isinstance(key, int):
        return splitmix64(key & ((1 << 64) - 1)) & _MASK63
    if isinstance(key, str):
        raw: bytes = key.encode("utf-8")
    elif isinstance(key, bytes):
        raw = key
    else:
        raise TypeError(f"unsupported key type {type(key).__name__}")
    digest = hashlib.blake2b(raw, digest_size=8).digest()
    return int.from_bytes(digest, "big") & _MASK63


@dataclass(slots=True)
class ServeConfig:
    """Geometry and concurrency knobs for one :class:`ZServeCache`."""

    num_shards: int = 4
    num_ways: int = 4
    lines_per_way: int = 256
    levels: int = 2
    hash_kind: str = "mix"
    hash_seed: int = 0
    policy: str = "lru"
    #: "twophase" = off-lock walk + commit under lock; "locked" = the
    #: whole access under the shard lock (the naive baseline)
    mode: str = "twophase"
    max_retries: int = 8
    #: store + verify an integrity digest for byte-like payloads
    #: (computed off-lock in two-phase mode, under the lock in locked
    #: mode — see :func:`repro.serve.shard.payload_digest`)
    fingerprint: bool = False

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {self.num_shards}")
        if self.mode not in MODES:
            raise ValueError(
                f"unknown mode {self.mode!r}; expected one of {MODES}"
            )

    @property
    def capacity(self) -> int:
        """Total blocks across all shards."""
        return self.num_shards * self.num_ways * self.lines_per_way


class ZServeCache:
    """The concurrent key→value cache: N independent shards.

    Thread-safe for any mix of :meth:`get` / :meth:`put` /
    :meth:`invalidate` callers. In ``"twophase"`` mode reads never
    contend with anything (lock-free payload lookups); two keys on
    different shards never contend; two keys on the same shard contend
    only for the commit, not the walk.
    """

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        obs: Optional[ObsContext] = None,
        wrap_array: Optional[Callable[[ZCacheArray], CacheArray]] = None,
    ) -> None:
        cfg = config if config is not None else ServeConfig()
        self.config = cfg
        self.obs = obs
        self._num_shards = cfg.num_shards
        #: key -> key_address(key) for keys of a MEMO_TYPES type,
        #: capped at capacity entries and written only by _address
        self._memo: dict[Key, int] = {}
        self.shards: list[CacheShard] = []
        for i in range(cfg.num_shards):
            shard_obs = obs.scoped(f"shard{i}") if obs is not None else None
            self.shards.append(
                CacheShard(
                    num_ways=cfg.num_ways,
                    lines_per_way=cfg.lines_per_way,
                    levels=cfg.levels,
                    hash_kind=cfg.hash_kind,
                    # Distinct hash families per shard: identical
                    # families would re-create the same collision sets
                    # in every shard.
                    hash_seed=cfg.hash_seed * 1000003 + i,
                    policy=cfg.policy,
                    two_phase=(cfg.mode == "twophase"),
                    max_retries=cfg.max_retries,
                    obs=shard_obs,
                    wrap_array=wrap_array,
                    name=f"shard{i}",
                    fingerprint=cfg.fingerprint,
                )
            )

    # -- the API -------------------------------------------------------------
    def _address(self, key: Key) -> int:
        """``key``'s block address, through the memo for a ``MEMO_TYPES``
        key.

        No lock: each ``dict`` call is atomic under the GIL and every
        value is ``key_address``'s, so a racing reader finds a key's
        true address or none.
        """
        if type(key) not in MEMO_TYPES:
            return key_address(key)
        address = self._memo.get(key)
        if address is None:
            address = key_address(key)
            if len(self._memo) >= self.config.capacity:
                self._memo.clear()
            self._memo[key] = address
        return address

    def get(self, key: Key) -> tuple[bool, Any]:
        """``(True, value)`` on a hit, ``(False, None)`` on a miss."""
        # _address's memo hit, inlined: the call costs 5% of serve_hot's
        # wall_s (0.1057 against 0.1005 calibrated s, medians of ten runs).
        address = self._memo.get(key) if type(key) in MEMO_TYPES else None
        if address is None:
            address = self._address(key)
        value = self.shards[address % self._num_shards].get(address)
        if value is MISS:
            return False, None
        return True, value

    def put(self, key: Key, value: Any) -> None:
        """Install or overwrite ``key``'s value."""
        address = self._address(key)
        self.shards[address % self._num_shards].put(address, key, value)

    def invalidate(self, key: Key) -> bool:
        """Drop ``key``; True when it was cached."""
        address = self._address(key)
        return self.shards[address % self._num_shards].invalidate(address)

    # -- aggregate statistics ------------------------------------------------
    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def _sum(self, counter: str) -> int:
        total = 0
        for shard in self.shards:
            total += shard.cache.stats.counters()[counter].value
        return total

    @property
    def hits(self) -> int:
        """Read hits across shards (the client-visible hit count)."""
        return sum(shard._c_read_hits.value for shard in self.shards)

    @property
    def misses(self) -> int:
        """Read misses across shards."""
        return sum(shard._c_read_misses.value for shard in self.shards)

    @property
    def hit_rate(self) -> float:
        """Read hit rate — hits over reads, as a client would measure it.

        Counted at the shard (the zcache never sees lock-free hits),
        best-effort under concurrent readers: a lost increment skews
        the rate by one count, never the cache contents.
        """
        reads = self.hits + self.misses
        return self.hits / reads if reads else 0.0

    @property
    def stale_retries(self) -> int:
        """Commits rejected by the freshness check, across shards."""
        return sum(shard.cache.stale_retries for shard in self.shards)

    @property
    def walk_races(self) -> int:
        """Off-lock walks that failed mid-read, across shards."""
        return sum(shard._c_walk_races.value for shard in self.shards)

    @property
    def fallback_fills(self) -> int:
        """Puts that spent their retry budget, across shards."""
        return sum(shard._c_fallback_fills.value for shard in self.shards)

    @property
    def recency_dropped(self) -> int:
        """Read hits the full recency buffer discarded, across shards."""
        return sum(shard._c_recency_dropped.value for shard in self.shards)

    def snapshot(self) -> dict[str, Any]:
        """One dict of the service-level aggregates (for STATS / tests)."""
        return {
            "shards": self.config.num_shards,
            "mode": self.config.mode,
            "capacity": self.config.capacity,
            "entries": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "evictions": self._sum("evictions"),
            "relocations": self._sum("relocations"),
            "stale_retries": self.stale_retries,
            "walk_races": self.walk_races,
            "fallback_fills": self.fallback_fills,
            "recency_dropped": self.recency_dropped,
        }

    def check_consistency(self) -> None:
        """Quiesced full-service check: each shard's payloads against its
        residency, and every memo entry against :func:`key_address`."""
        for shard in self.shards:
            shard.check_consistency()
        wrong = [
            key for key, address in list(self._memo.items())
            if address != key_address(key)
        ]
        if wrong:
            raise AssertionError(
                f"key memo holds {len(wrong)} key(s) at a wrong address"
            )
