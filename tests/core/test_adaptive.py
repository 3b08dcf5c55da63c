"""Tests for the adaptive-associativity controller (paper Section VIII)."""

import itertools
import random

import pytest

from repro.core import AdaptiveZCache, ZCacheArray
from repro.core.setassoc import SetAssociativeArray
from repro.replacement import LRU
from repro.workloads.patterns import mixed, sequential_scan, zipf


def make(levels=3, lines=128, **kw):
    return AdaptiveZCache(
        ZCacheArray(4, lines, levels=levels, hash_seed=1), LRU(), **kw
    )


class TestConstruction:
    def test_requires_zcache(self):
        with pytest.raises(TypeError):
            AdaptiveZCache(SetAssociativeArray(4, 64), LRU())

    def test_rejects_bad_thresholds(self):
        with pytest.raises(ValueError):
            make(grow_threshold=0.1, shrink_threshold=0.5)

    def test_rejects_bad_epoch(self):
        with pytest.raises(ValueError):
            make(epoch_misses=0)

    def test_starts_at_full_depth(self):
        cache = make()
        assert cache.current_limit == 52
        assert cache.array.candidate_limit == 52

    def test_min_candidates_floor_validated(self):
        with pytest.raises(ValueError):
            make(min_candidates=2)  # below W


class TestAdaptation:
    def test_streaming_shrinks_to_skew(self):
        cache = make(epoch_misses=256)
        for addr in itertools.islice(sequential_scan(4096), 20_000):
            cache.access(addr)
        assert cache.current_limit == 4  # the skew configuration
        assert cache.adaptive_stats.epochs > 0

    def test_reuse_traffic_keeps_depth(self):
        cache = make(lines=256, epoch_misses=256)
        trace = mixed(
            [(0.5, zipf(2048, 1.2, seed=1)), (0.5, sequential_scan(1280))],
            seed=3,
        )
        for addr in itertools.islice(trace, 60_000):
            cache.access(addr)
        assert cache.current_limit >= 26  # stays near full depth

    def test_saves_tag_bandwidth_on_streams(self):
        from repro.core import Cache

        fixed = Cache(ZCacheArray(4, 128, levels=3, hash_seed=1), LRU())
        adaptive = make(epoch_misses=128)
        for addr in itertools.islice(sequential_scan(4096), 15_000):
            fixed.access(addr)
            adaptive.access(addr)
        per_miss_fixed = fixed.stats.walk_tag_reads / fixed.stats.misses
        per_miss_adaptive = (
            adaptive.stats.walk_tag_reads / adaptive.stats.misses
        )
        assert per_miss_adaptive < 0.5 * per_miss_fixed
        # Streaming gets no associativity benefit, so miss rates match.
        assert adaptive.stats.miss_rate == pytest.approx(
            fixed.stats.miss_rate, abs=0.01
        )

    def test_matches_fixed_on_phased_traffic(self):
        # Section VIII's ablation: streaming phases (associativity is
        # useless) alternating with reuse phases (it pays). Near-equal
        # miss rate at materially lower walk bandwidth.
        from repro.core import Cache

        def phased_trace():
            stream = sequential_scan(128 * 16)
            reuse = mixed(
                [(0.5, zipf(128 * 8, skew=1.2, seed=1)),
                 (0.5, sequential_scan(128 * 5))],
                seed=2,
            )
            for phase in range(4):
                yield from itertools.islice(
                    stream if phase % 2 == 0 else reuse, 6_000
                )

        fixed = Cache(ZCacheArray(4, 128, levels=3, hash_seed=3), LRU())
        adaptive = AdaptiveZCache(
            ZCacheArray(4, 128, levels=3, hash_seed=3), LRU(),
            epoch_misses=128,
        )
        for addr in phased_trace():
            fixed.access(addr)
        for addr in phased_trace():
            adaptive.access(addr)
        assert adaptive.stats.miss_rate < fixed.stats.miss_rate + 0.02
        assert (
            adaptive.stats.walk_tag_reads / adaptive.stats.misses
            < 0.8 * fixed.stats.walk_tag_reads / fixed.stats.misses
        )

    def test_history_recorded(self):
        cache = make(epoch_misses=64)
        rng = random.Random(2)
        for _ in range(5_000):
            cache.access(rng.randrange(2_000))
        hist = cache.adaptive_stats.history
        assert len(hist) == cache.adaptive_stats.epochs
        for _epoch, limit, fraction in hist:
            assert 4 <= limit <= 52
            assert 0.0 <= fraction <= 1.0

    def test_invariants_while_adapting(self):
        cache = make(epoch_misses=32)
        rng = random.Random(3)
        for i in range(8_000):
            # Alternate phases to force limit changes both ways.
            if (i // 2_000) % 2:
                cache.access(rng.randrange(700))
            else:
                cache.access(i % 5_000)
        cache.array.check_invariants()

    def test_limit_bounds_respected(self):
        cache = make(epoch_misses=16)
        rng = random.Random(4)
        for _ in range(6_000):
            cache.access(rng.randrange(3_000))
        for _e, limit, _f in cache.adaptive_stats.history:
            assert cache.min_candidates <= limit <= cache.max_candidates
