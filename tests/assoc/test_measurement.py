"""Tests for the TrackedPolicy instrumentation."""

import random

import pytest

from repro.assoc import TrackedPolicy, measure_associativity
from repro.core import Cache, FullyAssociativeArray, SetAssociativeArray, ZCacheArray
from repro.replacement import LRU, SRRIP, OptPolicy


class TestTrackedPolicy:
    def test_forwards_policy_behaviour(self):
        t = TrackedPolicy(LRU())
        t.on_insert(1)
        t.on_insert(2)
        t.on_access(1)
        assert t.select_victim([1, 2]) == 2

    def test_fully_associative_always_priority_one(self):
        # A fully-associative cache evicts the globally best candidate:
        # every eviction priority is exactly 1.0.
        t = TrackedPolicy(LRU())
        cache = Cache(FullyAssociativeArray(8), t)
        rng = random.Random(0)
        for _ in range(500):
            cache.access(rng.randrange(64))
        assert len(t.priorities) > 0
        assert all(p == 1.0 for p in t.priorities)

    def test_direct_mapped_priorities_spread(self):
        # A direct-mapped cache evicts whatever sits in the one slot: the
        # priorities spread across [0, 1].
        t = TrackedPolicy(LRU())
        cache = Cache(SetAssociativeArray(1, 16, hash_kind="h3"), t)
        rng = random.Random(1)
        for _ in range(3000):
            cache.access(rng.randrange(256))
        assert min(t.priorities) < 0.3
        assert max(t.priorities) > 0.9

    def test_priority_rank_correct_small_case(self):
        t = TrackedPolicy(LRU())
        for a in (1, 2, 3, 4, 5):
            t.on_insert(a)
        # Evicting the oldest of 5 blocks: rank 4 of 4 -> priority 1.0.
        t.on_evict(1)
        assert t.priorities[-1] == pytest.approx(1.0)
        # Evicting the newest: rank 0 -> priority 0.0.
        t.on_evict(5)
        assert t.priorities[-1] == pytest.approx(0.0)

    def test_single_resident_block_priority_one(self):
        t = TrackedPolicy(LRU())
        t.on_insert(9)
        t.on_evict(9)
        assert t.priorities == [1.0]

    def test_evicting_untracked_rejected(self):
        with pytest.raises(KeyError):
            TrackedPolicy(LRU()).on_evict(3)

    def test_double_insert_rejected(self):
        t = TrackedPolicy(LRU())
        t.on_insert(1)
        with pytest.raises(ValueError):
            t.on_insert(1)

    def test_reset_clears_priorities(self):
        t = TrackedPolicy(LRU())
        t.on_insert(1)
        t.on_evict(1)
        t.reset()
        assert t.priorities == []

    def test_srrip_aging_resynced(self):
        # SRRIP mutates candidate scores inside select_victim; the
        # tracker must pick up the changes or later ranks are wrong.
        t = TrackedPolicy(SRRIP(m_bits=2))
        for a in (1, 2, 3):
            t.on_insert(a)
        t.on_access(1)
        t.on_access(2)
        t.on_access(3)  # all rrpv 0 -> selection ages them
        t.select_victim([1, 2, 3])
        for a in (1, 2, 3):
            assert t._mirror[a] == (t.inner.score(a), a)

    def test_mirror_exact_under_traffic(self):
        t = TrackedPolicy(LRU())
        cache = Cache(ZCacheArray(4, 16, levels=2, hash_seed=1), t)
        rng = random.Random(2)
        for _ in range(2000):
            cache.access(rng.randrange(300))
        assert len(t._mirror) == len(cache)
        for addr in cache.resident():
            assert t._mirror[addr] == (t.inner.score(addr), addr)


class _BruteForceRank(TrackedPolicy):
    """A TrackedPolicy that also ranks every victim by brute force: a count
    over the resident blocks' live scores, independent of the sorted mirror."""

    def __init__(self, inner):
        super().__init__(inner)
        self.resident = set()
        self.expected = []

    def on_insert(self, address):
        super().on_insert(address)
        self.resident.add(address)

    def on_evict(self, address):
        score = self.inner.score
        key = (score(address), address)
        rank = sum((score(block), block) < key for block in self.resident)
        residents = len(self.resident)
        self.expected.append(rank / (residents - 1) if residents > 1 else 1.0)
        self.resident.remove(address)
        super().on_evict(address)


@pytest.mark.parametrize("policy", ["lru", "srrip", "opt"])
def test_every_priority_is_the_brute_force_rank(policy):
    # SRRIP ages blocks inside select_victim; OPT's never-used-again
    # blocks all score infinity, so its ranks rest on the address tiebreak.
    rng = random.Random(11)
    trace = [rng.randrange(160) for _ in range(3000)]
    inner = {
        "lru": LRU,
        "srrip": lambda: SRRIP(m_bits=2),
        "opt": lambda: OptPolicy.from_trace(trace),
    }[policy]()
    tracked = _BruteForceRank(inner)
    cache = Cache(ZCacheArray(4, 16, levels=2, hash_seed=3), tracked)
    for i, address in enumerate(trace):
        if i % 17 == 0 and address in cache:
            cache.invalidate(address)
        cache.access(address)
    assert len(tracked.expected) > 1000
    assert tracked.priorities == tracked.expected
    if policy == "opt":
        assert any(tracked.inner.score(a) == float("inf") for a in cache.resident())


class TestMeasureAssociativity:
    def test_end_to_end(self):
        rng = random.Random(3)
        trace = [(rng.randrange(512), False) for _ in range(4000)]
        dist, cache = measure_associativity(
            lambda: SetAssociativeArray(4, 16, hash_kind="h3"),
            LRU,
            trace,
        )
        assert len(dist) > 100
        assert cache.stats.accesses == 4000

    def test_warmup_discards_early_evictions(self):
        rng = random.Random(4)
        trace = [(rng.randrange(512), False) for _ in range(4000)]
        full, _ = measure_associativity(
            lambda: SetAssociativeArray(2, 16), LRU, trace, warmup=0
        )
        warm, _ = measure_associativity(
            lambda: SetAssociativeArray(2, 16), LRU, trace, warmup=2000
        )
        assert len(warm) < len(full)
