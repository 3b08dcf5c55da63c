"""The random-candidates array's draw-order contract, free-slot fills,
and the unmarked record's picks.

An evicting fill must consume ``random.Random(seed)`` exactly as ``n``
``randrange(num_blocks)`` calls would — every Fig. 2 victim, priority
and KS value hangs off that — and a cold fill must land in the
lowest-numbered free slot, drawing nothing. The oracles here are
``randrange`` itself and a dict-and-list model written in this file.
"""

import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import SanitizedArray
from repro.assoc import TrackedPolicy
from repro.core import Cache, FullyAssociativeArray, RandomCandidatesArray
from repro.replacement import LRU, SRRIP, RandomPolicy

EVICTING_FILLS = 200


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("blocks", [1, 64, 1000, 2048])  # 2^k and not
@pytest.mark.parametrize("n", [1, 4, 64])
def test_candidate_slots_are_the_randrange_sequence(seed, blocks, n):
    array = RandomCandidatesArray(blocks, n, seed=seed)
    oracle = random.Random(seed)
    for address in range(blocks):  # warm-up: cold fills draw nothing
        repl = array.build_replacement(address)
        array.commit_replacement(repl, 0)
    for address in range(blocks, blocks + EVICTING_FILLS):
        repl = array.build_replacement(address)
        expected = [oracle.randrange(blocks) for _ in range(n)]
        cands = repl.candidates
        assert [c.position for c in cands] == [(0, s) for s in expected]
        assert len(cands) == repl.tag_reads == n
        assert [c.address for c in cands] == [array._lines[0][s] for s in expected]
        assert all(c.level == 0 and c.parent is None for c in cands)
        # A plain record: a repeated slot is not marked
        assert repl.invalid is None and all(c.valid for c in cands)
        array.commit_replacement(repl, 0)
    array.check_invariants()


@pytest.mark.parametrize("blocks", [1000, 1024, 2048])  # 1024, 2048: k = log2 B + 1
@pytest.mark.parametrize("n", [1, 4, 64])
def test_pooled_slots_are_the_randrange_sequence_across_refills(blocks, n):
    """The bulk draw path, over several pool refills, with free-slot fills
    (which draw nothing) and invalidations interleaved."""
    seed = blocks + n
    array = RandomCandidatesArray(blocks, n, seed=seed)
    oracle = random.Random(seed)
    chooser = random.Random(-seed)
    for address in range(blocks):
        array.commit_replacement(array.build_replacement(address), 0)
    address, refills = blocks, 0
    while refills < 3:
        if chooser.random() < 0.05:  # invalidate; the next fill is free
            array.evict_address(chooser.choice(list(array._pos)))
            taken = array._taken
            repl = array.build_replacement(address)
            assert repl.tag_reads == 1 and repl.addresses == [None]
            assert array._taken == taken, "a free-slot fill drew"
        else:
            pool = array._pool
            repl = array.build_replacement(address)
            refills += array._pool is not pool
            assert repl.indices == [oracle.randrange(blocks) for _ in range(n)]
            assert repl.invalid is None
        array.commit_replacement(repl, 0)
        address += 1
    array.check_invariants()


@given(
    policy=st.sampled_from(["lru", "random", "srrip"]),
    seed=st.integers(0, 2**16),
    pins=st.integers(0, 16),
    phase2=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_a_plain_draw_picks_the_node_its_repeat_marks_left_valid(
    policy, seed, pins, phase2
):
    """A draw is handed out unmarked. ``Cache._pick`` on it must land on
    the node it lands on when every later copy of a slot is marked
    invalid, as draws once were: a repeated slot is the same line and
    holds the same block, and the pick keeps a block's first node."""
    rng = random.Random(seed)
    make = {"lru": LRU, "random": lambda: RandomPolicy(seed=seed), "srrip": SRRIP}
    cache = Cache(RandomCandidatesArray(24, 8, seed=seed), make[policy]())
    for address in [*range(24), *(rng.randrange(64) for _ in range(40))]:
        cache.access(address)
    for block in rng.sample(sorted(cache.resident()), pins):
        cache.pin(block)
    repl = cache.array.build_replacement(1000)
    while len(set(repl.indices)) == len(repl.indices):  # 72% of draws repeat
        repl = cache.array.build_replacement(1000)
    marked = copy.deepcopy(repl)
    marked.invalid = {
        i for i, slot in enumerate(repl.indices) if slot in repl.indices[:i]
    }
    skip = rng.choice(repl.addresses) if phase2 else None
    before = copy.deepcopy(cache.policy)
    landed = Cache._pick(cache, repl, skip)
    cache.policy = before  # the marked pick sees the policy state (SRRIP ages)
    assert landed == Cache._pick(cache, marked, skip)


def test_blocks_must_fit_one_word():
    with pytest.raises(ValueError, match="2\\*\\*32"):
        RandomCandidatesArray(1 << 32, 4)
    with pytest.raises(ValueError):
        RandomCandidatesArray(0, 4)


@pytest.mark.parametrize(
    "make",
    [lambda: RandomCandidatesArray(16, 4, seed=3), lambda: FullyAssociativeArray(16)],
    ids=["random-candidates", "fully-associative"],
)
def test_cold_fills_take_the_lowest_free_slot(make):
    array = make()
    rng_state = array._rng.getstate() if hasattr(array, "_rng") else None

    def fill(address):
        repl = array.build_replacement(address)
        assert repl.tag_reads == 1 and len(repl.candidates) == 1
        (free,) = repl.candidates
        assert free.address is None and free.valid
        array.commit_replacement(repl, 0)
        return free.position.index

    assert [fill(a) for a in range(16)] == list(range(16))
    for slot in (9, 3, 12, 5):  # block a sits in slot a
        array.evict_address(slot)
    assert [fill(100 + i) for i in range(3)] == [3, 5, 9]
    array.evict_address(0)  # freed below the one slot still free
    assert [fill(200), fill(201)] == [0, 12]
    assert len(array) == 16 and not array._free
    array.check_invariants()
    if rng_state is not None:
        assert array._rng.getstate() == rng_state, "a cold fill drew"


class _Oracle:
    """Random-candidates LRU cache as a slot list, two dicts and randrange."""

    def __init__(self, blocks, n, seed):
        self.rng, self.n = random.Random(seed), n
        self.slots = [None] * blocks
        self.where, self.stamp, self.clock = {}, {}, 0

    def _leave(self, block):
        """Drop ``block``; its eviction priority (rank / (residents - 1))."""
        younger = sum(s > self.stamp[block] for s in self.stamp.values())
        residents = len(self.stamp)
        del self.stamp[block]
        self.slots[self.where.pop(block)] = None
        return younger / (residents - 1) if residents > 1 else 1.0

    def access(self, block):
        """(hit, evicted block, its eviction priority)."""
        self.clock += 1
        hit, evicted, priority = block in self.where, None, None
        if not hit and None in self.slots:
            slot = self.slots.index(None)
        elif not hit:
            draws = [self.rng.randrange(len(self.slots)) for _ in range(self.n)]
            slot = min(draws, key=lambda s: self.stamp[self.slots[s]])
            evicted = self.slots[slot]
            priority = self._leave(evicted)
        if not hit:
            self.slots[slot], self.where[block] = block, slot
        self.stamp[block] = self.clock
        return hit, evicted, priority

    def invalidate(self, block):
        return self._leave(block) if block in self.where else None


@given(
    blocks=st.integers(1, 12),
    n=st.integers(1, 6),
    seed=st.integers(0, 50),
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(0, 40)), min_size=1, max_size=300
    ),
)
@settings(max_examples=60, deadline=None)
def test_cache_matches_the_dict_and_randrange_oracle(blocks, n, seed, ops):
    tracked = TrackedPolicy(LRU())
    array = SanitizedArray(RandomCandidatesArray(blocks, n, seed=seed), seed=seed)
    cache = Cache(array, tracked)
    oracle = _Oracle(blocks, n, seed)
    for is_invalidate, block in ops:
        recorded = len(tracked.priorities)
        if is_invalidate:
            cache.invalidate(block)
            expected = oracle.invalidate(block)
        else:
            result = cache.access(block)
            hit, evicted, expected = oracle.access(block)
            assert (result.hit, result.evicted) == (hit, evicted)
        assert tracked.priorities[recorded:] == (
            [] if expected is None else [expected]
        )
    assert sorted(cache.resident()) == sorted(oracle.where)
    array.final_check()
