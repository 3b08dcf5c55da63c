"""Tests for the zcache array and its replacement walk."""

import random

import pytest

from repro.core import Cache, SkewAssociativeArray, ZCacheArray
from repro.core.zcache import levels_for_candidates, replacement_candidates
from repro.replacement import LRU


class TestCandidateFormula:
    def test_paper_example_w3_l3(self):
        # Fig. 1 walks a 3-way cache three levels: 3 + 6 + 12 = 21.
        assert replacement_candidates(3, 3) == 21

    def test_paper_configurations(self):
        assert replacement_candidates(4, 1) == 4  # Z4/4 (skew)
        assert replacement_candidates(4, 2) == 16  # Z4/16
        assert replacement_candidates(4, 3) == 52  # Z4/52

    def test_two_way(self):
        # W=2: each level adds 2 candidates... R = 2 * L.
        assert replacement_candidates(2, 3) == 6

    def test_levels_for_candidates(self):
        assert levels_for_candidates(4, 16) == 2
        assert levels_for_candidates(4, 17) == 3
        assert levels_for_candidates(4, 52) == 3

    def test_levels_for_candidates_two_way(self):
        # R(2, L) = 2L grows linearly but always reaches the target.
        assert levels_for_candidates(2, 6) == 3
        assert levels_for_candidates(2, 7) == 4

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            replacement_candidates(0, 2)
        with pytest.raises(ValueError):
            replacement_candidates(4, 0)

    def test_rejects_degenerate_geometry(self):
        # A 1-way "zcache" has no alternative positions: R degenerates
        # to 1 for every L. It used to be silently returned; the
        # formula now rejects it (pinned messages — callers match them).
        with pytest.raises(
            ValueError, match=r"num_ways must be >= 2 for a zcache walk, got 1"
        ):
            replacement_candidates(1, 5)
        with pytest.raises(
            ValueError, match=r"num_ways must be >= 2 for a zcache walk, got 1"
        ):
            levels_for_candidates(1, 4)
        with pytest.raises(ValueError, match=r"levels must be >= 1, got 0"):
            replacement_candidates(4, 0)
        with pytest.raises(ValueError, match=r"levels must be >= 1, got -1"):
            replacement_candidates(4, -1)
        with pytest.raises(ValueError, match=r"target must be >= 1, got 0"):
            levels_for_candidates(4, 0)


class TestWalk:
    def make_full_cache(self, **kwargs):
        arr = ZCacheArray(4, 64, **kwargs)
        cache = Cache(arr, LRU())
        rng = random.Random(0)
        while arr.occupancy < 1.0:
            cache.access(rng.randrange(10_000))
        return arr, cache

    def test_full_walk_size(self):
        arr, _ = self.make_full_cache(levels=3)
        repl = arr.build_replacement(999_999)
        assert len(repl.candidates) == 52
        assert repl.tag_reads == 52
        by_level = {}
        for c in repl.candidates:
            by_level[c.level] = by_level.get(c.level, 0) + 1
        assert by_level == {0: 4, 1: 12, 2: 36}

    def test_children_exclude_parent_way(self):
        arr, _ = self.make_full_cache(levels=2)
        repl = arr.build_replacement(123_456_789)
        for c in repl.candidates:
            if c.parent is not None:
                assert c.position.way != c.parent.position.way

    def test_children_at_hash_of_parent_address(self):
        arr, _ = self.make_full_cache(levels=2)
        repl = arr.build_replacement(42_424_242)
        for c in repl.candidates:
            if c.parent is not None:
                expected = arr.hashes[c.position.way](c.parent.address)
                assert c.position.index == expected

    def test_level0_at_incoming_hashes(self):
        arr, _ = self.make_full_cache(levels=2)
        incoming = 777_777
        repl = arr.build_replacement(incoming)
        roots = [c for c in repl.candidates if c.level == 0]
        assert len(roots) == 4
        for c in roots:
            assert c.position.index == arr.hashes[c.position.way](incoming)

    def test_candidate_limit_truncates(self):
        arr, _ = self.make_full_cache(levels=3, candidate_limit=20)
        repl = arr.build_replacement(31_337)
        assert len(repl.candidates) == 20
        assert repl.truncated

    def test_candidate_limit_below_ways_rejected(self):
        with pytest.raises(ValueError):
            ZCacheArray(4, 64, candidate_limit=2)

    @pytest.mark.parametrize("array", [ZCacheArray, SkewAssociativeArray])
    def test_supplied_hashes_must_fit_the_geometry(self, array):
        # Sized for 128 lines, a function indexes past a 64-line way.
        from repro.hashing import make_hash_family

        with pytest.raises(ValueError, match="lines_per_way"):
            array(4, 64, hashes=make_hash_family("h3", 4, 128))
        with pytest.raises(ValueError, match="lines_per_way"):
            array(4, 64, hashes=list(make_hash_family("mix", 4, 32)))
        with pytest.raises(ValueError, match="num_lines"):
            array(2, 64, hashes=[*make_hash_family("h3", 1, 64),
                                 *make_hash_family("h3", 1, 128)])
        with pytest.raises(ValueError, match="one hash function per way"):
            array(4, 64, hashes=make_hash_family("h3", 3, 64))
        arr = array(4, 64, hashes=list(make_hash_family("h3", 4, 64)))
        assert arr.hashes.num_lines == 64

    def test_walk_on_empty_cache_stops_at_level0(self):
        arr = ZCacheArray(4, 64, levels=3)
        repl = arr.build_replacement(5)
        assert len(repl.candidates) == 4
        assert all(c.address is None for c in repl.candidates)


class TestRelocation:
    def test_commit_deep_candidate_relocates_ancestors(self):
        arr = ZCacheArray(4, 64, levels=3)
        cache = Cache(arr, LRU())
        rng = random.Random(1)
        while arr.occupancy < 1.0:
            cache.access(rng.randrange(10_000))
        incoming = 123_123
        repl = arr.build_replacement(incoming)
        deep = next(c for c in repl.usable() if c.level == 2 and c.address is not None)
        moved = [deep.parent.address, deep.parent.parent.address]  # will move
        result = arr.commit_replacement(repl, deep.node)
        assert result.evicted == deep.address
        assert result.relocations == 2
        assert incoming in arr
        assert deep.address not in arr
        assert arr.lookup(moved[0]) == deep.position  # one line down the path
        assert arr.lookup(moved[1]) == deep.parent.position
        assert arr.lookup(incoming) == deep.parent.parent.position
        arr.check_invariants()

    def test_commit_level0_no_relocation(self):
        arr = ZCacheArray(4, 64, levels=2)
        cache = Cache(arr, LRU())
        rng = random.Random(2)
        while arr.occupancy < 1.0:
            cache.access(rng.randrange(10_000))
        repl = arr.build_replacement(55_555)
        root = next(c for c in repl.usable() if c.level == 0)
        result = arr.commit_replacement(repl, root.node)
        assert result.relocations == 0
        assert arr.lookup(55_555) == root.position

    def test_commit_invalid_candidate_rejected(self):
        arr = ZCacheArray(4, 64, levels=2)
        repl = arr.build_replacement(1)
        repl.invalid = {0}
        with pytest.raises(ValueError):
            arr.commit_replacement(repl, 0)

    def test_stale_candidate_detected(self):
        arr = ZCacheArray(4, 64, levels=2)
        cache = Cache(arr, LRU())
        rng = random.Random(3)
        while arr.occupancy < 1.0:
            cache.access(rng.randrange(10_000))
        repl = arr.build_replacement(99_111)
        victim = next(c for c in repl.usable() if c.address is not None)
        arr.evict_address(victim.address)  # concurrent invalidation
        with pytest.raises(RuntimeError):
            arr.commit_replacement(repl, victim.node)


class TestHomeTable:
    """The resident home-position table: exactly the resident blocks,
    always what the hash family says, never written by a walk."""

    def make_full(self, **kwargs):
        arr = ZCacheArray(4, 32, levels=3, hash_seed=9, **kwargs)
        cache = Cache(arr, LRU())
        rng = random.Random(4)
        while arr.occupancy < 1.0:
            cache.access(rng.randrange(5_000))
        return arr, cache

    def test_tracks_the_resident_set(self):
        arr, cache = self.make_full()
        assert arr._homes.keys() == set(arr.resident())
        rng = random.Random(8)
        for _ in range(2_000):
            cache.access(rng.randrange(5_000))
            if rng.random() < 0.1:
                cache.invalidate(rng.choice(list(arr.resident())))
            if rng.random() < 0.05:
                forced = next(arr.resident())
                arr.evict_address(forced)
                cache.policy.on_evict(forced)  # keep the policy in step
        assert arr._homes.keys() == set(arr.resident())
        assert len(arr._homes) <= arr.num_blocks
        arr.check_invariants()

    def test_walk_leaves_it_alone(self):
        arr, _ = self.make_full()
        before = dict(arr._homes)
        for probe in range(90_000, 90_050):
            arr.build_replacement(probe)
        arr.build_reinsertion(next(arr.resident()))
        assert arr._homes == before

    def test_relocated_blocks_keep_their_entry(self):
        arr, _ = self.make_full()
        repl = arr.build_replacement(77_777)
        deep = next(c for c in repl.usable() if c.level == 2 and c.address is not None)
        moved = [deep.parent.address, deep.parent.parent.address]
        entries = [arr._homes[a] for a in moved]
        arr.commit_replacement(repl, deep.node)
        assert [arr._homes[a] for a in moved] == entries
        assert all(arr._homes[a] is e for a, e in zip(moved, entries))
        assert arr._homes[77_777] is repl.homes  # carried from the walk
        assert deep.address not in arr._homes
        arr.check_invariants()

    def test_rejected_commit_leaves_no_entry(self):
        arr, _ = self.make_full()
        repl = arr.build_replacement(66_666)
        victim = next(c for c in repl.usable() if c.address is not None)
        arr.evict_address(victim.address)
        with pytest.raises(RuntimeError):
            arr.commit_replacement(repl, victim.node)
        assert 66_666 not in arr._homes
        arr.check_invariants()

    def test_invariant_catches_a_leak_and_a_wrong_entry(self):
        arr, _ = self.make_full()
        arr._homes[123_456_789] = arr._hash_homes(123_456_789)
        with pytest.raises(AssertionError, match="home-position table"):
            arr.check_invariants()
        del arr._homes[123_456_789]
        victim = next(arr.resident())
        arr._homes[victim] = arr._homes[victim][::-1]
        with pytest.raises(AssertionError, match="home-position table"):
            arr.check_invariants()


class TestExtensions:
    def run_traffic(self, arr, n=3000, seed=0, footprint=2000):
        cache = Cache(arr, LRU())
        rng = random.Random(seed)
        for _ in range(n):
            cache.access(rng.randrange(footprint))
        arr.check_invariants()
        return cache

    def test_exact_repeat_filter(self):
        arr = ZCacheArray(2, 8, levels=4, repeat_filter="exact")
        self.run_traffic(arr, footprint=100)
        # In a tiny cache with a deep walk, repeats must be detected.
        assert arr.stats.repeats > 0
        # The filter prunes expansion: fewer candidates examined per
        # walk than the unfiltered array on the same traffic.
        unfiltered = ZCacheArray(2, 8, levels=4)
        self.run_traffic(unfiltered, footprint=100)
        assert (
            arr.stats.mean_candidates_per_walk
            <= unfiltered.stats.mean_candidates_per_walk
        )

    def test_bloom_repeat_filter(self):
        arr = ZCacheArray(2, 8, levels=4, repeat_filter="bloom")
        self.run_traffic(arr, footprint=100)
        assert arr.stats.repeats > 0

    def test_unknown_filter_rejected(self):
        with pytest.raises(ValueError):
            ZCacheArray(2, 8, repeat_filter="cuckoo")

    def test_dfs_strategy_runs_and_relocates_more(self):
        bfs = ZCacheArray(4, 256, levels=3, strategy="bfs", hash_seed=5)
        dfs = ZCacheArray(4, 256, levels=3, strategy="dfs", hash_seed=5, seed=9)
        self.run_traffic(bfs, n=12_000, footprint=8_000)
        self.run_traffic(dfs, n=12_000, footprint=8_000)
        assert dfs.stats.walks > 0
        # DFS chains are deep: relocations per walk exceed BFS's.
        assert (
            dfs.stats.mean_relocations_per_walk
            > bfs.stats.mean_relocations_per_walk
        )
        # The chain choices come from the array's own seeded RNG, so the
        # run is exactly reproducible.
        stats = dfs.stats
        assert (stats.walks, stats.candidates, stats.relocations) == (
            10544, 505004, 66233,
        )
        assert stats.level_hist == [
            2595, 632, 496, 515, 476, 498, 511, 474, 451,
            493, 491, 490, 505, 466, 450, 493, 508,
        ]

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            ZCacheArray(4, 64, strategy="ids")

    def test_skew_is_one_level_zcache(self):
        skew = SkewAssociativeArray(4, 64)
        assert skew.levels == 1
        assert skew.nominal_candidates() == 4

    def test_blocks_always_at_legal_positions(self):
        arr = ZCacheArray(3, 32, levels=3, hash_seed=7)
        self.run_traffic(arr, n=5000, footprint=1000)
        for addr in arr.resident():
            pos = arr.lookup(addr)
            assert pos.index == arr.hashes[pos.way](addr)


class TestExpectedRelocations:
    def test_formula_values(self):
        from repro.core.zcache import expected_relocations

        # W=4, L=3: (0*4 + 1*12 + 2*36) / 52.
        assert expected_relocations(4, 3) == pytest.approx(84 / 52)
        assert expected_relocations(4, 1) == 0.0
        # W=2, L=2: (0*2 + 1*2) / 4.
        assert expected_relocations(2, 2) == pytest.approx(0.5)

    def test_measured_tracks_but_undershoots_uniformity(self):
        from repro.core.zcache import expected_relocations

        arr = ZCacheArray(4, 256, levels=3, hash_seed=5)
        cache = Cache(arr, LRU())
        rng = random.Random(6)
        for _ in range(25_000):
            cache.access(rng.randrange(8_000))
        measured = arr.stats.mean_relocations_per_walk
        analytic = expected_relocations(4, 3)
        assert 0.6 * analytic < measured <= analytic + 1e-9
