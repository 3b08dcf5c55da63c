"""Tests for the fault injectors (repro.faults.inject)."""

import pytest

from repro.core import Cache, SetAssociativeArray
from repro.core.zcache import ZCacheArray
from repro.faults.inject import (
    ARRAY_FAULT_KINDS,
    FAULT_KINDS,
    POLICY_FAULT_KINDS,
    SERVE_FAULT_KINDS,
    FaultEvent,
    FaultInjector,
    FaultyArray,
)
from repro.replacement.lru import LRU


def _filled_array(blocks=32):
    array = ZCacheArray(4, 16, levels=2, hash_seed=3)
    cache = Cache(array, LRU())
    for address in range(blocks):
        cache.access(address)
    return array, cache


class TestFaultEvent:
    def test_kind_vocabulary_is_partitioned(self):
        assert set(FAULT_KINDS) == (
            set(ARRAY_FAULT_KINDS)
            | set(POLICY_FAULT_KINDS)
            | set(SERVE_FAULT_KINDS)
        )
        assert len(FAULT_KINDS) == len(set(FAULT_KINDS))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(kind="cosmic-ray", at=0)

    def test_negative_fields_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(kind="tag-flip", at=-1)
        with pytest.raises(ValueError):
            FaultEvent(kind="tag-flip", at=0, bit=-2)


class TestSchedule:
    def test_events_fire_at_their_trigger(self):
        array, _ = _filled_array()
        injector = FaultInjector(
            [FaultEvent(kind="tag-flip", at=2), FaultEvent(kind="tag-flip", at=0)]
        )
        injector.advance(array)
        assert len(injector.fired) == 1
        injector.advance(array)
        assert len(injector.fired) == 1
        injector.advance(array)
        assert len(injector.fired) == 2
        assert injector.exhausted

    def test_tag_flip_mutates_one_resident_tag(self):
        array, _ = _filled_array()
        before = [list(row) for row in array._lines]
        injector = FaultInjector([FaultEvent("tag-flip", 0, bit=2)])
        injector.advance(array)
        after = array._lines
        diffs = [
            (w, i)
            for w in range(array.num_ways)
            for i in range(array.lines_per_way)
            if before[w][i] != after[w][i]
        ]
        assert len(diffs) == 1
        w, i = diffs[0]
        assert after[w][i] == before[w][i] ^ (1 << 2)
        # The position map is deliberately left stale: that is the fault.
        assert before[w][i] in array._pos

    def test_tag_flip_fizzles_on_empty_array(self):
        array = ZCacheArray(4, 16, levels=2, hash_seed=3)
        injector = FaultInjector([FaultEvent("tag-flip", 0)])
        injector.advance(array)
        ((_, _, applied),) = injector.fired
        assert applied is False

    def test_stamp_corrupt_zeroes_one_stamp(self):
        _, cache = _filled_array()
        policy = cache.policy
        assert all(v > 0 for v in policy._stamp.values())
        injector = FaultInjector([FaultEvent("stamp-corrupt", 0)])
        injector.advance(None, policy)
        assert sum(1 for v in policy._stamp.values() if v == 0) == 1

    def test_walk_and_commit_kinds_arm_instead_of_firing(self):
        injector = FaultInjector(
            [
                FaultEvent(kind="stale-walk", at=0),
                FaultEvent(kind="drop-relocation", at=0),
                FaultEvent(kind="drop-eviction-log", at=0),
            ]
        )
        injector.advance()
        assert not injector.fired
        assert not injector.exhausted
        assert injector.take_log_drop() is True
        assert injector.take_log_drop() is False


class TestFaultyArray:
    def test_pure_proxy_with_empty_plan(self):
        # Same seed, same stream; one cache wrapped, one bare — the
        # proxy with nothing armed must be invisible in every counter
        # and in the final array contents.
        bare_array = ZCacheArray(4, 16, levels=2, hash_seed=9)
        bare = Cache(bare_array, LRU())
        wrapped_array = ZCacheArray(4, 16, levels=2, hash_seed=9)
        injector = FaultInjector([])
        proxied = Cache(FaultyArray(wrapped_array, injector), LRU())
        import random

        rng_a, rng_b = random.Random(11), random.Random(11)
        for _ in range(500):
            bare.access(rng_a.randrange(256))
            proxied.access(rng_b.randrange(256))
        assert bare_array._lines == wrapped_array._lines
        assert bare_array._pos == wrapped_array._pos
        assert (
            bare.stats.counters()["misses"].value
            == proxied.stats.counters()["misses"].value
        )

    def test_delegation_surface(self):
        array, _ = _filled_array()
        injector = FaultInjector([])
        proxy = FaultyArray(array, injector)
        assert proxy.array is array
        assert proxy.num_ways == array.num_ways
        # The sanitizer's per-node reads see the array's own storage.
        assert proxy._lines is array._lines and proxy._pos is array._pos
        assert len(proxy) == len(array)
        resident = next(iter(array._pos))
        assert resident in proxy
        assert proxy.lookup(resident) == array.lookup(resident)

    def test_armed_walk_corrupts_returned_candidates(self):
        array, _ = _filled_array(blocks=200)
        injector = FaultInjector([FaultEvent("stale-walk", 0, bit=1)])
        proxy = FaultyArray(array, injector)
        injector.advance(array)
        repl = proxy.build_replacement(10_000)
        # Exactly one candidate record disagrees with the array.
        stale = [
            c
            for c in repl.candidates
            if c.address != array._lines[c.position.way][c.position.index]
        ]
        assert len(stale) == 1
        assert injector.exhausted

    def test_armed_walk_reaches_the_controllers_commit(self):
        # No sanitizer: the rewritten record is what the controller
        # picks from and commits, so the fault cannot fizzle silently.
        # One set of two ways holds blocks 2 and 3; the fault rewrites
        # node 0's 2 into a 3, the policy's only choice is block 3, and
        # its first node is node 0 — a line that holds 2.
        array = SetAssociativeArray(2, 1)
        injector = FaultInjector([FaultEvent("stale-walk", 0, index=0, bit=0)])
        cache = Cache(FaultyArray(array, injector), LRU())
        cache.access(2)
        cache.access(3)
        injector.advance(array)
        with pytest.raises(RuntimeError, match="stale walk path"):
            cache.access(4)
        assert injector.exhausted
        assert sorted(array.resident()) == [2, 3]
