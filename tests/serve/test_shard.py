"""Tests for one shard: the lock + two-phase cache + payload store."""

import random
import threading
from unittest import mock

import pytest

from repro.analysis.sanitizer import SanitizedArray
from repro.core.base import ArrayProxy
from repro.faults.inject import record_evictions
from repro.serve.shard import (
    MISS,
    RECENCY_CAP,
    CacheShard,
    payload_digest,
)


class TestBasicOps:
    def test_get_miss_does_not_allocate(self):
        shard = CacheShard(lines_per_way=16)
        assert shard.get(1) is MISS
        assert len(shard) == 0
        assert shard._c_read_misses.value == 1

    def test_put_then_get(self):
        shard = CacheShard(lines_per_way=16)
        shard.put(1, "k1", "v1")
        assert shard.get(1) == "v1"
        assert len(shard) == 1

    def test_put_overwrites(self):
        shard = CacheShard(lines_per_way=16)
        shard.put(1, "k", "old")
        shard.put(1, "k", "new")
        assert shard.get(1) == "new"
        assert len(shard) == 1

    def test_none_is_storable(self):
        shard = CacheShard(lines_per_way=16)
        shard.put(1, "k", None)
        assert shard.get(1) is None
        assert shard.get(2) is MISS

    def test_invalidate(self):
        shard = CacheShard(lines_per_way=16)
        shard.put(1, "k", "v")
        assert shard.invalidate(1) is True
        assert shard.get(1) is MISS
        assert shard.invalidate(1) is False
        assert len(shard) == 0

    def test_single_lock_mode(self):
        shard = CacheShard(lines_per_way=16, two_phase=False)
        for i in range(100):
            shard.put(i, i, i * 2)
        hits = sum(1 for i in range(100) if shard.get(i) is not MISS)
        assert hits > 0
        shard.check_consistency()


class TestEvictionBookkeeping:
    def test_payloads_follow_evictions(self):
        # Tiny shard, big working set: every resident block must have
        # its payload and no payload may outlive its block.
        shard = CacheShard(num_ways=4, lines_per_way=8, hash_seed=5)
        for i in range(2_000):
            shard.put(i, i, i)
        assert len(shard) <= 32
        shard.check_consistency()

    def test_resident_values_are_correct_after_churn(self):
        shard = CacheShard(num_ways=4, lines_per_way=8, hash_seed=5)
        for i in range(500):
            shard.put(i, i, i * 3)
        for addr in list(shard.cache.resident()):
            assert shard.get(addr) == addr * 3

    def test_consistency_check_detects_orphans(self):
        shard = CacheShard(lines_per_way=16)
        shard.put(1, "k", "v")
        shard._entries[999] = ("zombie", "zombie")
        with pytest.raises(AssertionError, match="out of sync"):
            shard.check_consistency()


class TestRecencyBuffer:
    def test_read_burst_drops_hits_once_the_buffer_is_full(self):
        # A read-only burst with no intervening writer must cap the
        # buffer at RECENCY_CAP and count every hit past it — the
        # counter is how operators see the policy going stale.
        shard = CacheShard(lines_per_way=16)
        shard.put(1, "k", "v")  # the put drains whatever was buffered
        assert shard._recency == []
        extra = 50
        for _ in range(RECENCY_CAP + extra):
            assert shard.get(1) == "v"
        assert len(shard._recency) == RECENCY_CAP
        assert shard._c_recency_dropped.value == extra
        # The next writer drains the buffer, re-arming the fast path.
        shard.put(2, "k2", "v2")
        assert shard._recency == []
        shard.get(1)
        assert len(shard._recency) == 1
        assert shard._c_recency_dropped.value == extra

    def test_dropped_counter_reaches_the_service_snapshot(self):
        from repro.serve.service import ServeConfig, ZServeCache

        svc = ZServeCache(ServeConfig(num_shards=1, lines_per_way=16))
        svc.put("k", "v")
        for _ in range(RECENCY_CAP + 7):
            svc.get("k")
        assert svc.snapshot()["recency_dropped"] == 7


class StaleOnce(ArrayProxy):
    """Rejects the next ``commit_replacement`` the way the array's
    stale-path guard does; ``narrow`` also truncates the re-walk to
    level 0, so it cannot reach the slot the first victim freed and
    has to evict an *extra* block."""

    _OWN = frozenset({"armed", "narrow"})
    armed = narrow = False

    def commit_replacement(self, repl, chosen):
        if self.armed:
            self.armed = False
            if self.narrow:
                self._inner.candidate_limit = self._inner.num_ways
            raise RuntimeError("stale path (forced by the test)")
        return self._inner.commit_replacement(repl, chosen)


class TestEvictionChokePoint:
    """Every replacement victim, on every two-phase path, leaves
    through ``Cache._evict`` — where the shard drops its payload."""

    def test_stream_is_the_policy_stream_minus_invalidations(self):
        shard = CacheShard(num_ways=3, lines_per_way=32, levels=3,
                           hash_seed=1, wrap_array=StaleOnce)
        cache, proxy = shard.cache, shard.cache.array
        policy_saw = cache.policy.on_evict = mock.Mock(
            wraps=cache.policy.on_evict)
        stream = record_evictions(cache)
        capacity = cache.array.num_blocks
        rng = random.Random(5)
        invalidated, paths = [], set()

        def put(address):
            before = (len(stream), cache.stale_retries,
                      cache.second_phase_wins, cache.stats.misses)
            shard.put(address, address, address)
            proxy.candidate_limit = None
            shard.check_consistency()  # (b) after every operation
            if cache.stats.misses > before[3]:
                paths.add((
                    "win" if cache.second_phase_wins > before[2] else "plain",
                    "stale" if cache.stale_retries > before[1] else "fresh",
                    len(stream) - before[0],
                ))

        # Natural traffic: plain evictions, phase-2 wins with a victim
        # and into a free slot, the phase-1 re-walk; invalidations
        # reach the policy but not the choke point.
        for i in range(12_000):
            address = rng.randrange(3 * capacity)
            if i % 97 == 0 and address in cache:
                shard.invalidate(address)
                invalidated.append(address)
                shard.check_consistency()
            else:
                put(address)
        # Forced staleness, on a full cache only (so the rejected commit
        # is always a post-phase-2 landing, never a free-slot fill).
        for i in range(3_000):
            address = rng.randrange(3 * capacity)
            if len(cache) == capacity and i % 7 == 0 and address not in cache:
                proxy.armed, proxy.narrow = True, i % 2 == 0
            put(address)
            assert not proxy.armed

        # (a) nothing bypasses the choke point or is counted twice
        assert len(stream) == cache.stats.evictions
        seen = [call.args[0] for call in policy_saw.call_args_list]
        assert len(seen) == len(stream) + len(invalidated)
        for address in invalidated:
            seen.remove(address)
        assert sorted(seen) == sorted(stream)
        # ... and every path was driven: plain eviction, phase-2 win
        # with a victim (1) and into a free slot (0), both re-walk
        # branches with and without the extra victim that
        # AccessResult.evicted never reports.
        assert paths >= {
            ("plain", "fresh", 1), ("win", "fresh", 1), ("win", "fresh", 0),
            ("plain", "stale", 1), ("plain", "stale", 2),
            ("win", "stale", 1), ("win", "stale", 2),
        }


class TestFingerprint:
    def test_digest_only_covers_bytes(self):
        assert payload_digest(b"abc") == payload_digest(bytearray(b"abc"))
        assert payload_digest("abc") is None
        assert payload_digest(42) is None

    def test_roundtrip_with_fingerprint(self):
        shard = CacheShard(lines_per_way=16, fingerprint=True)
        shard.put(1, "k", b"payload")
        assert shard.get(1) == b"payload"
        shard.put(2, "k2", 99)  # non-bytes payloads skip the digest
        assert shard.get(2) == 99

    def test_corrupted_payload_is_detected_on_read(self):
        shard = CacheShard(lines_per_way=16, fingerprint=True)
        shard.put(1, "k", b"good")
        key, _, fp = shard._entries[1]
        shard._entries[1] = (key, b"evil", fp)
        with pytest.raises(AssertionError, match="fingerprint mismatch"):
            shard.get(1)

    def test_locked_mode_verifies_too(self):
        shard = CacheShard(lines_per_way=16, two_phase=False, fingerprint=True)
        shard.put(1, "k", b"good")
        assert shard.get(1) == b"good"
        key, _, fp = shard._entries[1]
        shard._entries[1] = (key, b"evil", fp)
        with pytest.raises(AssertionError, match="fingerprint mismatch"):
            shard.get(1)


class TestConcurrentShard:
    def test_concurrent_puts_converge(self):
        shard = CacheShard(num_ways=4, lines_per_way=64, hash_seed=2)
        errors = []

        def worker(base):
            try:
                for i in range(1_500):
                    addr = (base * 7 + i * 13) % 4_096
                    shard.put(addr, addr, addr)
                    shard.get((addr * 31) % 4_096)
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        shard.check_consistency()
        shard.cache.array.check_invariants()

    def test_concurrent_puts_sanitized(self):
        shard = CacheShard(
            num_ways=4,
            lines_per_way=32,
            hash_seed=3,
            wrap_array=lambda array: SanitizedArray(array, seed=3),
        )
        errors = []

        def worker(base):
            try:
                for i in range(800):
                    addr = (base * 11 + i * 17) % 2_048
                    shard.put(addr, addr, addr)
            except BaseException as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, f"sanitizer violation under the shard lock: {errors[0]}"
        shard.check_consistency()
        shard.cache.array.final_check()
