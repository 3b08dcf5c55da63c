"""Tests for the set-associative array."""

import pytest

from repro.core import Cache, SetAssociativeArray
from repro.replacement import LRU


class TestPlacement:
    def test_block_lands_in_its_set(self):
        arr = SetAssociativeArray(num_ways=2, lines_per_way=16)
        cache = Cache(arr, LRU())
        cache.access(100)
        pos = arr.lookup(100)
        assert pos is not None
        assert pos.index == arr.set_index(100)

    def test_bitsel_index_is_low_bits(self):
        arr = SetAssociativeArray(2, 16)
        assert arr.set_index(0x35) == 0x5

    def test_set_fills_all_ways_before_evicting(self):
        arr = SetAssociativeArray(num_ways=4, lines_per_way=4)
        cache = Cache(arr, LRU())
        # Four conflicting addresses fill the four ways of set 0.
        for i in range(4):
            cache.access(i * 4)
        assert cache.stats.evictions == 0
        assert all(a is not None for a in arr.set_contents(0))

    def test_conflict_evicts_lru_within_set(self):
        arr = SetAssociativeArray(num_ways=2, lines_per_way=4)
        cache = Cache(arr, LRU())
        cache.access(0)  # set 0
        cache.access(4)  # set 0
        cache.access(0)  # refresh 0
        result = cache.access(8)  # set 0: evicts 4
        assert result.evicted == 4
        assert 0 in cache and 8 in cache and 4 not in cache

    def test_no_relocations_ever(self):
        arr = SetAssociativeArray(2, 8)
        cache = Cache(arr, LRU())
        for a in range(100):
            cache.access(a)
        assert cache.stats.relocations == 0

    def test_hashed_index_spreads_strides(self):
        plain = SetAssociativeArray(2, 64, hash_kind="bitsel")
        hashed = SetAssociativeArray(2, 64, hash_kind="h3", hash_seed=1)
        stride_addrs = [i * 64 for i in range(32)]
        plain_sets = {plain.set_index(a) for a in stride_addrs}
        hashed_sets = {hashed.set_index(a) for a in stride_addrs}
        assert len(plain_sets) == 1
        assert len(hashed_sets) > 16

    def test_invariants_hold_after_traffic(self):
        arr = SetAssociativeArray(4, 16, hash_kind="h3")
        cache = Cache(arr, LRU())
        import random

        rng = random.Random(0)
        for _ in range(2000):
            cache.access(rng.randrange(256))
        arr.check_invariants()

    def test_build_replacement_on_resident_block_rejected(self):
        arr = SetAssociativeArray(2, 8)
        cache = Cache(arr, LRU())
        cache.access(1)
        with pytest.raises(RuntimeError):
            arr.build_replacement(1)

    def test_supplied_index_hash_must_fit_the_geometry(self):
        from repro.hashing import H3Hash

        with pytest.raises(ValueError, match="different set count"):
            SetAssociativeArray(4, 64, index_hash=H3Hash(128))
        assert SetAssociativeArray(4, 64, index_hash=H3Hash(64)).num_sets == 64

    def test_tag_reads_per_replacement_equals_ways(self):
        arr = SetAssociativeArray(4, 8)
        repl = arr.build_replacement(3)
        assert repl.tag_reads == 4
        assert len(repl.candidates) == 4
        assert all(c.level == 0 for c in repl.candidates)
