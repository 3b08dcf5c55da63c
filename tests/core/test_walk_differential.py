"""Differential verification of the zcache walk.

An independent, brute-force re-implementation of the breadth-first walk
(straight from the paper's description, no shared code with the array's
incremental version) recomputes the candidate tree from the array's
observable state; hypothesis drives both against random traffic and the
trees must agree node for node. This is the strongest guard against
walk regressions: the two implementations would have to break in the
same way.

The reference hashes every tag it reads with the way's hash function —
it knows nothing of the array's home-position table — so any entry of
that table that disagreed with the hash family, or any expansion that
followed the table where the tag read says otherwise, shows up as a
diverging node.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Cache, TwoPhaseZCache, ZCacheArray
from repro.replacement import LRU
from repro.util.bloom import BloomFilter


def reference_walk(array: ZCacheArray, incoming: int, reinsert: bool = False):
    """The paper's walk, written the naive way.

    Returns ``(nodes, repeats, truncated)``: the nodes in BFS order as
    (way, index, resident, level, parent's number or None, valid), the
    repeats the walk counts (a position read before, or — with a repeat
    filter — a block met before, each counted) and whether the candidate
    limit cut the walk short. ``reinsert`` walks for a *resident* block:
    level 0 is its W-1 other home positions, and its own position counts
    as already read.
    """
    limit = array.candidate_limit
    tracker = None
    if array.repeat_filter == "exact":
        tracker = {incoming}
    elif array.repeat_filter == "bloom":
        tracker = BloomFilter(num_bits=1024, num_hashes=2)
        tracker.add(incoming)
    read_before = set()
    own_way = None
    if reinsert:
        own = array.lookup(incoming)
        own_way = own.way
        read_before.add((own.way, own.index))
    nodes = []
    repeats = 0

    def read(way, tag, level, parent):
        """Read ``tag``'s line in ``way``; the node's number if it expands."""
        nonlocal repeats
        index = array.hashes[way](tag)
        resident = array._lines[way][index]
        valid = True
        ancestor = parent
        while ancestor is not None:
            if nodes[ancestor][:2] == (way, index):
                valid = False  # the relocation path would revisit a line
            ancestor = nodes[ancestor][4]
        repeat = (way, index) in read_before
        repeats += repeat
        read_before.add((way, index))
        if tracker is not None and resident is not None:
            if resident in tracker:
                repeat = True
                repeats += 1
            else:
                tracker.add(resident)
        nodes.append((way, index, resident, level, parent, valid))
        pruned = repeat and tracker is not None
        if valid and resident is not None and not pruned:
            return len(nodes) - 1
        return None

    frontier = []
    for way in range(array.num_ways):
        if way != own_way:
            frontier.append(read(way, incoming, 0, None))
    for level in range(1, array.levels):
        next_frontier = []
        for parent in frontier:
            if parent is None:
                continue
            for way in range(array.num_ways):
                if way == nodes[parent][0]:
                    continue
                if limit is not None and len(nodes) >= limit:
                    return nodes, repeats, True
                next_frontier.append(read(way, nodes[parent][2], level, parent))
        frontier = next_frontier
    return nodes, repeats, False


def observed(repl):
    """A walk record in the reference's node format."""
    parents = repl.parents
    invalid = repl.invalid or ()
    return [
        (repl.ways[i], repl.indices[i], repl.addresses[i], repl.level(i),
         None if parents is None or parents[i] < 0 else parents[i],
         i not in invalid)
        for i in range(len(repl.addresses))
    ]


def assert_walk_matches(array, walk, address, reinsert=False):
    """Run ``walk(address)`` and compare it with the reference, whole."""
    nodes, repeats, truncated = reference_walk(array, address, reinsert)
    repeats_before = array.stats.repeats
    reads_before = array.stats.tag_reads
    repl = walk(address)
    assert observed(repl) == nodes
    assert repl.truncated == truncated
    assert repl.tag_reads == len(nodes)
    assert array.stats.tag_reads - reads_before == len(nodes)
    assert array.stats.repeats - repeats_before == repeats
    return repl


GEOMETRY = dict(
    ways=st.sampled_from([2, 3, 4]),
    levels=st.sampled_from([1, 2, 3]),
    repeat_filter=st.sampled_from([None, "exact", "bloom"]),
    headroom=st.one_of(st.none(), st.integers(0, 12)),
)


def make_array(ways, levels, repeat_filter, headroom, lines=16):
    return ZCacheArray(
        ways, lines, levels=levels, hash_seed=7, repeat_filter=repeat_filter,
        candidate_limit=None if headroom is None else ways + headroom,
    )


@given(
    trace=st.lists(st.integers(0, 2000), min_size=30, max_size=300),
    probe=st.integers(10_000, 20_000),
    **GEOMETRY,
)
@settings(max_examples=60, deadline=None)
def test_walk_matches_reference(trace, probe, ways, levels, repeat_filter, headroom):
    array = make_array(ways, levels, repeat_filter, headroom)
    cache = Cache(array, LRU())
    for addr in trace:
        cache.access(addr)
    if probe in array:
        probe += 100_000  # make sure the probe misses
    assert_walk_matches(array, array.build_replacement, probe)
    array.check_invariants()


@given(
    trace=st.lists(st.integers(0, 2000), min_size=30, max_size=300),
    pick=st.integers(0, 10_000),
    **GEOMETRY,
)
@settings(max_examples=60, deadline=None)
def test_reinsertion_walk_matches_reference(
    trace, pick, ways, levels, repeat_filter, headroom
):
    array = make_array(ways, levels, repeat_filter, headroom)
    cache = TwoPhaseZCache(array, LRU())  # its fills run reinsertion walks too
    for addr in trace:
        cache.access(addr)
    resident = sorted(array.resident())
    block = resident[pick % len(resident)]
    repl = assert_walk_matches(array, array.build_reinsertion, block, reinsert=True)
    assert all(repl.ways[i] != array.lookup(block).way
               for i in range(len(repl.addresses)) if repl.level(i) == 0)
    array.check_invariants()


@given(
    trace=st.lists(st.integers(0, 2000), min_size=60, max_size=300),
    probe=st.integers(10_000, 20_000),
    way=st.integers(0, 3),
    bit=st.integers(12, 19),
    levels=st.sampled_from([2, 3]),
)
@settings(max_examples=40, deadline=None)
def test_walk_follows_the_tag_it_reads(trace, probe, way, bit, levels):
    """Tags rewritten behind the array's back (what a ``tag-flip`` fault
    does) are in no table: expansion must hash the tag actually read."""
    array = ZCacheArray(4, 16, levels=levels, hash_seed=7)
    cache = Cache(array, LRU())
    for addr in trace:
        cache.access(addr)
    row = array._lines[way]
    for index, tag in enumerate(row):
        if tag is not None:
            row[index] = tag ^ (1 << bit)
    if probe in array:
        probe += 100_000
    assert_walk_matches(array, array.build_replacement, probe)


def test_ancestor_repeats_are_marked_invalid():
    """Small deep walks revisit lines along their own path; those nodes
    (and only those) must come out ``valid=False`` and unexpanded."""
    rng = random.Random(5)
    invalid = truncated = 0
    for seed in range(12):
        array = ZCacheArray(3, 4, levels=4, hash_seed=seed,
                            candidate_limit=None if seed % 2 else 40)
        cache = Cache(array, LRU())
        for _ in range(200):
            cache.access(rng.randrange(300))
        for probe in range(1000, 1020):
            repl = assert_walk_matches(array, array.build_replacement, probe)
            invalid += len(repl.invalid or ())
            truncated += repl.truncated
    assert invalid > 0 and truncated > 0


@given(
    trace=st.lists(st.integers(0, 500), min_size=50, max_size=300),
)
@settings(max_examples=30, deadline=None)
def test_walk_level_counts_bounded_by_formula(trace):
    array = ZCacheArray(4, 8, levels=3, hash_seed=11)
    cache = Cache(array, LRU())
    for addr in trace:
        cache.access(addr)
    repl = array.build_replacement(10**9)
    # Level l holds at most W*(W-1)^l nodes (fewer when slots are free).
    for level, count in enumerate(repl.level_counts()):
        assert count <= 4 * 3**level
