"""Tests for the sharded service: routing, API, aggregate stats."""

import pytest

from repro.serve.baseline import DictLRUServe
from repro.serve.service import MODES, ServeConfig, ZServeCache, key_address


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


class TestDictLRUBaseline:
    def test_same_interface(self):
        base = DictLRUServe(capacity=8)
        base.put("a", 1)
        assert base.get("a") == (True, 1)
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
