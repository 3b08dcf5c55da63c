"""Runtime invariant sanitizer tests.

Two halves, mirroring the sanitizer's promise:

- *Soundness on healthy arrays*: property-based random access streams
  through ``SanitizedArray``-wrapped caches raise nothing, and the
  wrapper is observably transparent (identical statistics to an
  unwrapped run of the same seed).
- *Sensitivity to corruption* (mutation tests): every violation class
  in ``VIOLATION_KINDS`` is deliberately injected and must be caught
  with the right ``kind``.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizer import (
    VIOLATION_KINDS,
    InvariantViolation,
    SanitizedArray,
)
from repro.core import (
    Cache,
    Position,
    RandomCandidatesArray,
    Replacement,
    ZCacheArray,
)
from repro.replacement import LRU


def run_stream(cache, seed, accesses, footprint, invalidate_every=0):
    """Drive a seeded random access stream, optionally with invalidations."""
    rng = random.Random(seed)
    for i in range(accesses):
        addr = rng.randrange(footprint)
        cache.access(addr, is_write=bool(rng.getrandbits(1)))
        if invalidate_every and i % invalidate_every == invalidate_every - 1:
            cache.invalidate(rng.randrange(footprint))


# -- soundness: healthy arrays never trip the sanitizer --------------------


class TestCleanRuns:
    @settings(max_examples=15, deadline=None)
    @given(
        ways=st.integers(min_value=2, max_value=4),
        levels=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**16),
        strategy=st.sampled_from(["bfs", "dfs"]),
        repeat_filter=st.sampled_from([None, "exact", "bloom"]),
    )
    def test_random_streams_raise_no_violation(
        self, ways, levels, seed, strategy, repeat_filter
    ):
        array = SanitizedArray(
            ZCacheArray(
                ways,
                32,
                levels=levels,
                strategy=strategy,
                repeat_filter=repeat_filter,
                hash_seed=seed,
                seed=seed,
            ),
            seed=seed,
            deep_check_interval=16,
        )
        cache = Cache(array, LRU())
        run_stream(cache, seed, 300, footprint=4 * array.num_blocks,
                   invalidate_every=25)
        array.final_check()
        assert array.checks_run > 0
        assert array.deep_scans > 0

    @settings(max_examples=10, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=16),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_random_candidates_array_clean(self, n, seed):
        array = SanitizedArray(
            RandomCandidatesArray(64, n, seed=seed),
            seed=seed,
            deep_check_interval=8,
        )
        cache = Cache(array, LRU())
        run_stream(cache, seed, 300, footprint=256)
        array.final_check()

    def test_wrapper_is_transparent(self):
        """Same seed, wrapped vs bare: bit-identical statistics."""
        def build(wrap):
            array = ZCacheArray(4, 64, levels=2, hash_seed=3, seed=3)
            if wrap:
                array = SanitizedArray(array, seed=3)
            cache = Cache(array, LRU())
            run_stream(cache, 11, 2_000, footprint=512)
            return cache

        bare, wrapped = build(False), build(True)
        assert bare.stats.as_dict() == wrapped.stats.as_dict()
        assert sorted(bare.resident()) == sorted(wrapped.resident())

    def test_attribute_forwarding(self):
        inner = ZCacheArray(4, 16, levels=2)
        array = SanitizedArray(inner, seed=0)
        assert array.num_ways == 4
        assert array.levels == 2
        assert array.array is inner
        assert len(array) == 0
        assert 123 not in array
        # Writes to array-owned attributes reach the inner array (the
        # AdaptiveZCache tuning path).
        array.candidate_limit = 8
        assert inner.candidate_limit == 8


# -- sensitivity: every injected corruption must be caught -----------------


def filled_zcache(seed=0, ways=4, lines=16, levels=2):
    """A sanitized zcache populated by a short healthy stream."""
    array = SanitizedArray(
        ZCacheArray(ways, lines, levels=levels, hash_seed=seed, seed=seed),
        seed=seed,
        deep_check_interval=0,
    )
    cache = Cache(array, LRU())
    run_stream(cache, seed, 400, footprint=2 * array.num_blocks)
    assert len(array) > ways  # the stream actually filled the cache
    return array


def expect(kind):
    """Context manager asserting an InvariantViolation of ``kind``."""
    return pytest.raises(InvariantViolation, match=rf"\[{kind}\]")


class TestMutationDetection:
    def test_map_desync_wrong_position(self):
        array = filled_zcache()
        inner = array.array
        addr = next(iter(inner._pos))
        real = inner._pos[addr]
        inner._pos[addr] = Position(real.way, (real.index + 1) % inner.lines_per_way)
        with expect("map-desync"):
            array.deep_check()

    def test_map_desync_phantom_entry(self):
        array = filled_zcache()
        inner = array.array
        free = next(
            Position(w, i)
            for w in range(inner.num_ways)
            for i in range(inner.lines_per_way)
            if inner._lines[w][i] is None
        )
        inner._pos[0xDEAD_0001] = free
        with expect("map-desync"):
            array.deep_check()

    def test_duplicate_tag(self):
        array = filled_zcache()
        inner = array.array
        addr = next(iter(inner._pos))
        other_way = (inner._pos[addr].way + 1) % inner.num_ways
        inner._lines[other_way][0] = addr
        with expect("duplicate-tag"):
            array.deep_check()

    def test_hash_placement(self):
        array = filled_zcache()
        inner = array.array
        # Move a block within its way, keeping map and lines in sync, so
        # only the hash-placement invariant is broken.
        addr, pos = next(iter(inner._pos.items()))
        wrong = (inner.hashes[pos.way](addr) + 1) % inner.lines_per_way
        displaced = inner._lines[pos.way][wrong]
        if displaced is not None:
            del inner._pos[displaced]
        inner._lines[pos.way][pos.index] = None
        inner._lines[pos.way][wrong] = addr
        inner._pos[addr] = Position(pos.way, wrong)
        with expect("hash-placement"):
            array.deep_check()

    def test_conservation_lost_block(self):
        class LeakyZCache(ZCacheArray):
            """Evicts an innocent bystander on every commit."""

            def commit_replacement(self, repl, chosen):
                result = super().commit_replacement(repl, chosen)
                for addr in list(self._pos):
                    if addr != repl.incoming:
                        self.evict_address(addr)
                        break
                return result

        array = SanitizedArray(
            LeakyZCache(4, 16, levels=2), seed=0, deep_check_interval=0
        )
        cache = Cache(array, LRU())
        with expect("conservation"):
            run_stream(cache, 0, 50, footprint=256)

    def test_evict_leaving_map_entry(self):
        array = filled_zcache()
        inner = array.array
        addr = next(iter(inner._pos))

        def sticky_evict(address):
            pos = inner._pos[address]
            inner._lines[pos.way][pos.index] = None
            # deliberately forgets to drop inner._pos[address]

        inner.evict_address = sticky_evict
        with expect("map-desync"):
            array.evict_address(addr)


class TestWalkTreeMutations:
    """Hand-corrupted walk records fed to ``check_walk`` directly.

    Node 0 of every record is a well-formed root — the empty line at
    the incoming block's way-0 hash — so the corrupted node after it is
    the first to fail.
    """

    def setup_method(self):
        self.array = SanitizedArray(
            ZCacheArray(4, 16, levels=2, hash_seed=1, seed=1),
            seed=1,
            deep_check_interval=0,
        )
        self.home = self.array.array.hashes[0](0x999)

    def repl_with(self, *nodes, parents=None, level_starts=(0,)):
        """A record for incoming 0x999 from ``(way, index, address)``s."""
        ways, indices, addresses = (list(column) for column in zip(*nodes))
        return Replacement(0x999, ways, indices, addresses, parents, level_starts)

    def test_walk_cycle(self):
        # corrupt: the root names its own child as its parent
        repl = self.repl_with(
            (0, self.home, None), (1, 0, None), parents=[1, 0],
            level_starts=[0, 1],
        )
        with expect("walk-cycle"):
            self.array.check_walk(repl)

    def test_walk_level_gap(self):
        # The child sits in level 5 (four empty rounds in between).
        repl = self.repl_with(
            (0, self.home, None), (1, 0, None), parents=[-1, 0],
            level_starts=[0, 1, 1, 1, 1, 1],
        )
        with expect("walk-level"):
            self.array.check_walk(repl)

    def test_walk_nonzero_root_level(self):
        repl = self.repl_with(
            (0, self.home, None), parents=[-1], level_starts=[0, 0, 0, 0]
        )
        with expect("walk-level"):
            self.array.check_walk(repl)

    def test_flat_plan_with_a_non_root_candidate(self):
        # No parent links promise level-0 roots only; node 1 is level 1.
        repl = self.repl_with(
            (0, self.home, None), (1, 0, None), level_starts=[0, 1]
        )
        assert repl.parents is None
        with expect("walk-level"):
            self.array.check_walk(repl)

    def test_walk_parent_empty_slot_expanded(self):
        repl = self.repl_with(
            (0, self.home, None), (1, 0, None), parents=[-1, 0],
            level_starts=[0, 1],
        )
        with expect("walk-parent"):
            self.array.check_walk(repl)

    def test_walk_repeat_not_invalidated(self):
        # Make the recorded contents real so only the repeat fires.
        inner = self.array.array
        inner._lines[0][self.home] = 0x1
        inner._pos[0x1] = Position(0, self.home)
        repl = self.repl_with(
            (0, self.home, 0x1), (0, self.home, 0x1), parents=[-1, 0],
            level_starts=[0, 1],
        )
        assert repl.invalid is None
        with expect("walk-repeat"):
            self.array.check_walk(repl)

    def test_walk_stale_address(self):
        with expect("walk-stale"):
            self.array.check_walk(self.repl_with((0, 0, 0xBEEF)))

    def test_walk_bounds(self):
        with expect("walk-bounds"):
            self.array.check_walk(self.repl_with((9, 0, None)))

    def test_walk_hash_mismatch(self):
        inner = self.array.array
        off = (0, (self.home + 1) % inner.lines_per_way, None)
        with expect("walk-hash"):
            self.array.check_walk(self.repl_with(off))

    def test_corrupted_real_walk(self):
        """A record from a real walk, one parent link pointed forward."""
        array = filled_zcache()
        repl = array.array.build_replacement(0x12345)
        array.check_walk(repl)
        assert repl.parents is not None and len(repl.level_starts) == 2
        child = repl.level_starts[1]
        repl.parents[child] = child
        with expect("walk-cycle"):
            array.check_walk(repl)


class TestInvariantViolation:
    def test_kind_must_be_known(self):
        with pytest.raises(ValueError, match="unknown violation kind"):
            InvariantViolation("made-up", "detail")

    def test_message_carries_seed_and_trace(self):
        exc = InvariantViolation(
            "map-desync",
            "something broke",
            seed=42,
            trace=(("build", 0x10), ("commit", 0x10)),
        )
        text = str(exc)
        assert "seed=42" in text
        assert "commit(0x10)" in text
        assert exc.kind == "map-desync"

    def test_all_kinds_constructible(self):
        for kind in VIOLATION_KINDS:
            assert InvariantViolation(kind, "x").kind == kind

    def test_violation_from_run_reports_seed(self):
        array = filled_zcache(seed=7)
        inner = array.array
        addr = next(iter(inner._pos))
        inner._pos[addr] = Position(0, 0)
        try:
            array.deep_check()
        except InvariantViolation as exc:
            assert exc.seed == 7
            assert exc.trace  # the access history is attached
        else:  # pragma: no cover
            pytest.fail("corruption was not detected")
