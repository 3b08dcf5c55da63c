"""Tests for the sharded service: routing, API, aggregate stats."""

import threading

import numpy as np
import pytest

from repro.serve.baseline import DictLRUServe
from repro.serve.service import (
    MEMO_TYPES,
    MODES,
    ServeConfig,
    ZServeCache,
    key_address,
)


class TestKeyAddress:
    def test_deterministic_and_63_bit(self):
        for key in (0, 1, 2**63, "hello", b"hello", "", b""):
            a1, a2 = key_address(key), key_address(key)
            assert a1 == a2
            assert 0 <= a1 < 2**63

    def test_str_and_bytes_hash_identically(self):
        # Wire clients send str; in-process callers may use bytes.
        assert key_address("abc") == key_address(b"abc")

    def test_int_keys_avalanche(self):
        # Sequential ints must not land on sequential addresses (shard
        # routing uses address % shards).
        addrs = [key_address(i) for i in range(64)]
        assert len(set(a % 8 for a in addrs)) == 8

    def test_rejects_bad_keys(self):
        with pytest.raises(TypeError):
            key_address(True)
        with pytest.raises(TypeError):
            key_address(3.14)  # type: ignore[arg-type]


class TestConfig:
    def test_capacity(self):
        cfg = ServeConfig(num_shards=4, num_ways=4, lines_per_way=256)
        assert cfg.capacity == 4 * 4 * 256

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ServeConfig(num_shards=0)
        with pytest.raises(ValueError):
            ServeConfig(mode="optimistic")
        assert set(MODES) == {"twophase", "locked"}


class TestServiceApi:
    def make(self, **kwargs):
        kwargs.setdefault("num_shards", 4)
        kwargs.setdefault("lines_per_way", 32)
        return ZServeCache(ServeConfig(**kwargs))

    def test_put_get_invalidate(self):
        svc = self.make()
        svc.put("user:1", {"name": "ada"})
        hit, value = svc.get("user:1")
        assert hit and value == {"name": "ada"}
        assert svc.invalidate("user:1") is True
        hit, value = svc.get("user:1")
        assert not hit and value is None

    def test_every_key_type(self):
        svc = self.make()
        svc.put(42, "int")
        svc.put("42", "str")
        svc.put(b"42", "bytes")
        assert svc.get(42) == (True, "int")
        # str and bytes intentionally alias (wire protocol parity).
        assert svc.get("42") == (True, "bytes")
        assert svc.get(b"42") == (True, "bytes")

    def test_keys_spread_across_shards(self):
        svc = self.make()
        for i in range(400):
            svc.put(i, i)
        occupied = [len(shard) for shard in svc.shards]
        assert all(n > 0 for n in occupied)

    def test_aggregate_stats(self):
        svc = self.make()
        for i in range(100):
            svc.put(i, i)
        for i in range(100):
            svc.get(i)
        snap = svc.snapshot()
        assert snap["hits"] == svc.hits > 0
        assert snap["shards"] == 4
        assert snap["mode"] == "twophase"
        assert 0.0 < snap["hit_rate"] <= 1.0
        svc.check_consistency()

    def test_locked_mode_serves_identically(self):
        two = self.make(num_shards=2)
        locked = self.make(num_shards=2, mode="locked")
        for svc in (two, locked):
            for i in range(600):
                svc.put(i, i * 3)
        # Same geometry, same hash seeds: identical sequential
        # behaviour regardless of the locking discipline.
        assert {a for s in two.shards for a in s.cache.resident()} == {
            a for s in locked.shards for a in s.cache.resident()
        }


class TestKeyIndex:
    """The key-address memo: a plain dict owned by the service."""

    def make(self, **kwargs):
        kwargs.setdefault("num_shards", 4)
        kwargs.setdefault("lines_per_way", 16)
        return ZServeCache(ServeConfig(**kwargs))

    @staticmethod
    def resident_keys(svc):
        return {
            entry[0]: address
            for shard in svc.shards
            for address, entry in shard._entries.items()
        }

    @pytest.mark.parametrize("op", ["get", "put", "invalidate"])
    @pytest.mark.parametrize(
        "alias", [True, 1.0, np.int64(1)], ids=["bool", "float", "int64"]
    )
    def test_equal_keys_of_other_types_still_raise(self, op, alias):
        # Each alias compares equal to (and hashes like) the resident
        # int 1, so an index lookup would find 1's address.
        svc = self.make()
        svc.put(1, "one")
        svc.put("abc", "s")
        args = (alias, "x") if op == "put" else (alias,)
        with pytest.raises(TypeError):
            getattr(svc, op)(*args)
        assert svc.get(1) == (True, "one")
        # b"abc" misses the index ("abc" != b"abc"), and key_address
        # gives it "abc"'s address.
        assert svc.get(b"abc") == (True, "s")
        svc.check_consistency()

    def test_a_str_subclass_with_its_own_equality_is_not_indexed(self):
        class Folded(str):
            def __eq__(self, other):
                return isinstance(other, str) and self.lower() == other.lower()

            def __hash__(self):
                return hash(self.lower())

        svc = self.make()
        svc.put("abc", "lower")
        svc.put(Folded("ABC"), "upper")
        # ``Folded("ABC") in svc._memo`` would match "abc": test types.
        assert not any(type(k) is Folded for k in svc._memo)
        # "ABC" is hashed to its own address, as Folded("ABC") was, and
        # "abc" keeps its entry through Folded("ABC")'s invalidation.
        assert svc.get("ABC") == (True, "upper")
        assert svc.get("abc") == (True, "lower")
        svc.check_consistency()
        assert svc.invalidate(Folded("ABC")) is True
        assert svc.get("abc") == (True, "lower")
        svc.check_consistency()
        svc.invalidate("abc")
        svc.put(Folded("ABC"), "upper")
        assert svc.get("abc") == (False, None)
        svc.check_consistency()

    @pytest.mark.parametrize("mode", ["twophase", "locked"])
    def test_memo_stays_within_capacity_and_exact(self, mode):
        svc = self.make(mode=mode)
        capacity = svc.config.capacity
        for i in range(4 * capacity):  # evictions on every shard
            svc.put(i, i)
            if i % 7 == 0:
                svc.invalidate(i // 2)
        assert 0 < len(self.resident_keys(svc)) <= capacity
        assert 0 < len(svc._memo) <= capacity
        assert all(type(k) in MEMO_TYPES for k in svc._memo)
        assert all(a == key_address(k) for k, a in svc._memo.items())
        svc.check_consistency()

    def test_an_aliasing_key_takes_the_entry_over(self):
        svc = self.make()
        svc.put("k", 1)
        svc.put(b"k", 2)  # same address: the entry now holds b"k"
        assert svc._memo["k"] == svc._memo[b"k"] == key_address("k")
        svc.put(5, 3)
        svc.put(5 + 2**64, 4)  # ints alias at 64 bits
        assert svc._memo[5] == svc._memo[5 + 2**64] == key_address(5)
        assert svc.get("k") == (True, 2)
        assert svc.get(5) == (True, 4)
        svc.check_consistency()
        assert svc.invalidate("k") is True
        assert svc.get(b"k") == (False, None)
        svc.check_consistency()

    def test_check_catches_a_wrong_address(self):
        svc = self.make()
        svc.put("abc", 1)
        svc._memo["abc"] ^= 1
        with pytest.raises(AssertionError, match="1 key.* at a wrong address"):
            svc.check_consistency()

    def test_threaded_aliasing_traffic_keeps_the_index_exact(self):
        svc = self.make(num_shards=2)
        errors = []

        def worker(seed):
            try:
                for i in range(1500):
                    n = (seed * 7919 + i * 31) % 300
                    key = str(n) if i % 3 else str(n).encode()
                    if i % 10 == 0:
                        svc.invalidate(key)
                    elif i % 2:
                        svc.put(key, n)
                    else:
                        hit, value = svc.get(key)
                        assert not hit or value == n
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        svc.check_consistency()

    def test_threaded_traffic_through_a_memo_that_empties(self):
        # Capacity 32 against 200 keys: the memo fills and is emptied
        # over and over while 4 threads get, put and invalidate.
        svc = self.make(num_shards=2, lines_per_way=4)
        errors = []

        def worker(seed):
            try:
                for i in range(2000):
                    n = (seed * 7919 + i * 31) % 200
                    key = n if i % 3 else str(n)
                    if i % 10 == 0:
                        svc.invalidate(key)
                    elif i % 2:
                        svc.put(key, (key, seed))
                    else:
                        hit, value = svc.get(key)
                        assert not hit or value[0] == key
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        svc.check_consistency()


class TestDictLRUBaseline:
    def test_same_interface(self):
        base = DictLRUServe(capacity=8)
        for value in (1, None):  # None is a storable value
            base.put("a", value)
            assert base.get("a") == (True, value)
            assert base.get("b") == (False, None)
            assert base.invalidate("a") is True
            assert base.invalidate("a") is False
        assert "hit_rate" in base.snapshot()

    def test_lru_eviction_order(self):
        base = DictLRUServe(capacity=2)
        base.put("a", 1)
        base.put("b", 2)
        base.get("a")  # refresh a; b is now LRU
        base.put("c", 3)
        assert base.get("b") == (False, None)
        assert base.get("a") == (True, 1)

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            DictLRUServe(capacity=0)
