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
    make_wrapper,
    sanitize,
)
from repro.core import (
    Cache,
    Candidate,
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

    def test_make_wrapper_and_sanitize_helpers(self):
        wrap = make_wrapper(seed=9, deep_check_interval=0)
        array = wrap(ZCacheArray(2, 8))
        assert isinstance(array, SanitizedArray)
        assert array.seed == 9
        assert isinstance(sanitize(ZCacheArray(2, 8)), SanitizedArray)


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
    """Hand-corrupted candidate trees fed to ``check_walk`` directly."""

    def setup_method(self):
        self.array = SanitizedArray(
            ZCacheArray(4, 16, levels=2, hash_seed=1, seed=1),
            seed=1,
            deep_check_interval=0,
        )

    def repl_with(self, *cands):
        repl = Replacement(incoming=0x999)
        repl.candidates.extend(cands)
        return repl

    def test_walk_cycle(self):
        a = Candidate(position=Position(0, 0), address=None, level=0)
        b = Candidate(position=Position(1, 0), address=None, level=1, parent=a)
        a.parent = b  # corrupt: the "root" points back down the tree
        with expect("walk-cycle"):
            self.array.check_walk(self.repl_with(b))

    def test_walk_level_gap(self):
        root = Candidate(position=Position(0, 0), address=None, level=0)
        child = Candidate(
            position=Position(1, 0), address=None, level=5, parent=root
        )
        with expect("walk-level"):
            self.array.check_walk(self.repl_with(child))

    def test_walk_nonzero_root_level(self):
        root = Candidate(position=Position(0, 0), address=None, level=3)
        with expect("walk-level"):
            self.array.check_walk(self.repl_with(root))

    def test_flat_plan_with_a_non_root_candidate(self):
        root = Candidate(position=Position(0, 0), address=0x1, level=0)
        child = Candidate(
            position=Position(1, 0), address=None, level=1, parent=root
        )
        repl = self.repl_with(child)
        repl.flat = True  # promises level-0 roots only
        with expect("walk-level"):
            self.array.check_walk(repl)

    def test_walk_parent_empty_slot_expanded(self):
        root = Candidate(position=Position(0, 0), address=None, level=0)
        child = Candidate(
            position=Position(1, 0), address=None, level=1, parent=root
        )
        with expect("walk-parent"):
            self.array.check_walk(self.repl_with(child))

    def test_walk_repeat_not_invalidated(self):
        root = Candidate(position=Position(0, 0), address=0x1, level=0)
        child = Candidate(
            position=Position(0, 0), address=0x1, level=1, parent=root,
            valid=True,
        )
        # Make the recorded contents real so only the repeat fires.
        self.array.array._write(Position(0, 0), 0x1)
        with expect("walk-repeat"):
            self.array.check_walk(self.repl_with(child))

    def test_walk_stale_address(self):
        ghost = Candidate(position=Position(0, 0), address=0xBEEF, level=0)
        with expect("walk-stale"):
            self.array.check_walk(self.repl_with(ghost))

    def test_walk_bounds(self):
        rogue = Candidate(position=Position(9, 0), address=None, level=0)
        with expect("walk-bounds"):
            self.array.check_walk(self.repl_with(rogue))

    def test_walk_hash_mismatch(self):
        inner = self.array.array
        want = inner.hashes[0](0x999)
        off = Candidate(
            position=Position(0, (want + 1) % inner.lines_per_way),
            address=None,
            level=0,
        )
        with expect("walk-hash"):
            self.array.check_walk(self.repl_with(off))


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
