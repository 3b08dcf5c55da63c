"""Tests for the off-lock service surface of the two-phase zcache.

Covers the ZServe discipline at the core layer: ``prepare_fill`` /
``plan_is_fresh`` / ``commit_prepared``, the ``Cache.probe`` read path,
and — the concurrency edge ZServe's off-lock walk actually produces —
stale-retry accounting when an ``invalidate`` lands between phase 1
(the walk) and phase 2 (the commit), verified under the ZSpec runtime
sanitizer.
"""

import random

import pytest

from repro.analysis.sanitizer import SanitizedArray
from repro.core import Cache, StaleWalkError, TwoPhaseZCache, ZCacheArray
from repro.replacement import LRU


def fill_cache(cache, n=20_000, footprint=3_000, seed=11):
    rng = random.Random(seed)
    for _ in range(n):
        cache.access(rng.randrange(footprint), is_write=rng.random() < 0.25)
    return cache


def fresh_address(cache, footprint=3_000):
    addr = footprint + 1
    while addr in cache:
        addr += 1
    return addr


class TestProbe:
    def test_probe_hit_counts_like_access(self):
        cache = Cache(ZCacheArray(4, 64, hash_seed=1), LRU())
        cache.access(42)
        before = cache.stats.hits
        assert cache.probe(42) is True
        assert cache.stats.hits == before + 1

    def test_probe_miss_does_not_allocate(self):
        cache = Cache(ZCacheArray(4, 64, hash_seed=1), LRU())
        assert cache.probe(7) is False
        assert cache.stats.misses == 1
        assert len(cache) == 0
        assert 7 not in cache

    def test_probe_refreshes_policy_state(self):
        # A probed block must become MRU, exactly like a hit.
        policy = LRU()
        cache = Cache(ZCacheArray(4, 64, hash_seed=1), policy)
        cache.access(1)
        cache.access(2)
        cache.probe(1)
        assert policy.score(1) < policy.score(2)  # higher score = evict

    def test_probe_write_marks_dirty(self):
        cache = Cache(ZCacheArray(4, 64, hash_seed=1), LRU())
        cache.access(9)
        assert not cache.is_dirty(9)
        cache.probe(9, is_write=True)
        assert cache.is_dirty(9)

    def test_probe_rejects_negative_address(self):
        cache = Cache(ZCacheArray(4, 64, hash_seed=1), LRU())
        with pytest.raises(ValueError):
            cache.probe(-1)


class TestPrepareCommit:
    def make_cache(self, **kwargs):
        return TwoPhaseZCache(
            ZCacheArray(4, 64, levels=2, hash_seed=3, **kwargs), LRU()
        )

    def test_round_trip_counts_one_miss(self):
        cache = self.make_cache()
        plan = cache.prepare_fill(5)
        assert cache.plan_is_fresh(plan)
        result = cache.commit_prepared(5, plan)
        assert not result.hit
        assert 5 in cache
        assert cache.stats.accesses == 1
        assert cache.stats.misses == 1
        assert cache.stats.hits == 0

    def test_prepare_mutates_nothing(self):
        cache = fill_cache(self.make_cache(), footprint=1_500)
        resident = set(cache.resident())
        accesses = cache.stats.accesses
        cache.prepare_fill(fresh_address(cache))
        assert set(cache.resident()) == resident
        assert cache.stats.accesses == accesses

    def test_commit_after_racing_install_is_a_hit(self):
        cache = self.make_cache()
        plan = cache.prepare_fill(5)
        cache.access(5)  # the "other thread" wins the install race
        result = cache.commit_prepared(5, plan)
        assert result.hit
        assert cache.stats.hits == 1
        assert cache.stale_retries == 0

    def test_commit_wrong_address_rejected(self):
        cache = self.make_cache()
        plan = cache.prepare_fill(5)
        with pytest.raises(ValueError, match="prepared for"):
            cache.commit_prepared(6, plan)

    def test_write_commit_marks_dirty(self):
        cache = self.make_cache()
        plan = cache.prepare_fill(5)
        cache.commit_prepared(5, plan, is_write=True)
        assert cache.is_dirty(5)
        assert cache.stats.writes == 1


class TestInterleavedInvalidate:
    """Satellite: an invalidate between phase 1 and phase 2.

    This is the exact interleaving ZServe's off-lock walk produces —
    another client invalidates a walked block before the commit takes
    the shard lock. The plan must be rejected with ``stale_retries``
    accounting and *zero* array mutation, and the retry must succeed.
    """

    def make_filled(self):
        array = SanitizedArray(ZCacheArray(4, 64, levels=2, hash_seed=7), seed=7)
        cache = TwoPhaseZCache(array, LRU())
        fill_cache(cache, n=15_000, footprint=1_500)
        return array, cache

    def test_stale_plan_detected_and_retried(self):
        array, cache = self.make_filled()
        addr = fresh_address(cache, footprint=1_500)
        plan = cache.prepare_fill(addr)
        victim = next(c.address for c in plan.candidates if c.address is not None)
        assert victim in cache
        cache.invalidate(victim)
        assert not cache.plan_is_fresh(plan)

        resident_before = set(cache.resident())
        retries_before = cache.stale_retries
        misses_before = cache.stats.misses
        with pytest.raises(StaleWalkError):
            cache.commit_prepared(addr, plan)
        # Accounting: exactly one stale retry, no access/miss recorded.
        assert cache.stale_retries == retries_before + 1
        assert cache.stats.misses == misses_before
        # Atomicity: the rejected commit touched nothing.
        assert set(cache.resident()) == resident_before
        assert addr not in cache

        # The retry (fresh walk) succeeds and the block lands.
        fresh_plan = cache.prepare_fill(addr)
        assert cache.plan_is_fresh(fresh_plan)
        result = cache.commit_prepared(addr, fresh_plan)
        assert not result.hit and addr in cache
        array.final_check()
        # ... and neither the rejected plan nor the invalidate left an
        # entry behind in the home-position table.
        array.check_invariants()

    def test_invalidate_of_unwalked_block_keeps_plan_fresh(self):
        array, cache = self.make_filled()
        addr = fresh_address(cache, footprint=1_500)
        plan = cache.prepare_fill(addr)
        walked = {c.address for c in plan.candidates}
        bystander = next(a for a in cache.resident() if a not in walked)
        cache.invalidate(bystander)
        assert cache.plan_is_fresh(plan)
        cache.commit_prepared(addr, plan)
        assert addr in cache
        array.final_check()

    def test_second_phase_accounting_survives_sanitized_traffic(self):
        array, cache = self.make_filled()
        # Heavy traffic on a full sanitized cache exercises phase-2
        # wins; the counters must stay coherent and the final state
        # must pass the deep scan.
        assert cache.second_phase_walks > 0
        assert 0 <= cache.second_phase_wins <= cache.second_phase_walks
        assert cache.stale_retries >= 0
        s = cache.stats
        assert s.accesses == s.hits + s.misses
        array.final_check()


class TestOneDemandPrologue:
    """``access``, ``probe`` and ``commit_prepared`` count a demand
    reference through the same routines, so the same hit or miss moves
    the same counters by the same amounts."""

    @staticmethod
    def deltas(resident, op):
        cache = fill_cache(
            TwoPhaseZCache(ZCacheArray(4, 64, levels=2, hash_seed=3), LRU()),
            n=6_000, footprint=1_000,
        )
        address = fresh_address(cache, footprint=1_000)
        plan = cache.prepare_fill(address)
        if resident:  # "became resident between the walk and the commit"
            cache.access(address)
        before = {k: c.value for k, c in cache.stats.counters().items()}
        op(cache, address, plan)
        return {k: c.value - before[k]
                for k, c in cache.stats.counters().items()
                if c.value != before[k]}

    @pytest.mark.parametrize("is_write", [False, True])
    @pytest.mark.parametrize("resident", [False, True])
    def test_same_reference_moves_the_same_counters(self, resident, is_write):
        by_access = self.deltas(
            resident, lambda c, a, plan: c.access(a, is_write))
        assert by_access["hits" if resident else "misses"] == 1
        assert by_access == self.deltas(
            resident, lambda c, a, plan: c.commit_prepared(a, plan, is_write))
        by_probe = self.deltas(
            resident, lambda c, a, plan: c.probe(a, is_write))
        if resident:
            assert by_probe == by_access
        else:
            # A probe stops after the prologue: the reference and the
            # failed lookup's tag reads, nothing of the fill.
            kind = "writes" if is_write else "reads"
            assert by_probe == {
                "accesses": 1, kind: 1, "misses": 1, "tag_reads": 4}


class TestRefactorEquivalence:
    def test_fill_split_is_behaviour_preserving(self):
        # Fills through prepare_fill/commit_prepared and fills through
        # access share _fill_with; the protocols must be bit-identical.
        t1 = fill_cache(
            TwoPhaseZCache(ZCacheArray(4, 128, levels=2, hash_seed=1), LRU())
        )
        t2 = TwoPhaseZCache(ZCacheArray(4, 128, levels=2, hash_seed=1), LRU())
        rng = random.Random(11)
        for _ in range(20_000):
            addr = rng.randrange(3_000)
            is_write = rng.random() < 0.25
            plan = None
            if addr not in t2:
                plan = t2.prepare_fill(addr)
            if plan is not None:
                t2.commit_prepared(addr, plan, is_write=is_write)
            else:
                t2.access(addr, is_write=is_write)
        assert set(t1.resident()) == set(t2.resident())
        assert t1.stats.misses == t2.stats.misses
        assert t1.second_phase_wins == t2.second_phase_wins
