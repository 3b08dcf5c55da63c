"""The index commit against the ``Candidate`` commit it replaced.

``CacheArray.commit_replacement(repl, i)`` commits node ``i`` of the
flat walk record: one pass up ``repl.parents`` validates the path, then
the node's block leaves, each ancestor's block moves one line down and
the incoming block lands at the root. The oracle below is the commit as
it used to be made — a linked ``Candidate`` path, ``check_path``, the
victim's eviction, then each ancestor detached and written one step
down — and both must leave the same lines, position map, zcache home
table, free slots and ``CommitResult`` (or raise the same error and
leave the array as it was) for every array type, with pinned blocks,
invalid and duplicated nodes, stale paths, and the two-phase
controller's reinsertion and landing after a phase-2 win. ZBench's
ladder commits a view ``Candidate``; that route must land the same way.
"""

import copy
import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import (
    Cache,
    CacheArray,
    Candidate,
    CommitResult,
    FullyAssociativeArray,
    RandomCandidatesArray,
    SetAssociativeArray,
    SkewAssociativeArray,
    TwoPhaseZCache,
    ZCacheArray,
)
from repro.replacement import LRU

ARRAYS = {
    "set-associative": lambda: SetAssociativeArray(4, 8, hash_kind="h3", hash_seed=1),
    "skew": lambda: SkewAssociativeArray(4, 8, hash_seed=2),
    "zcache": lambda: ZCacheArray(3, 8, levels=3, hash_seed=3),
    "random-candidates": lambda: RandomCandidatesArray(24, 8, seed=4),
    "fully-associative": lambda: FullyAssociativeArray(24),
}


def oracle_commit(array, repl, chosen, reinsert=False):
    """``check_path`` + parent-chain relocation (+ reinsertion's detach)."""
    lines, pos = array._lines, array._pos
    path = [chosen]
    while path[-1].parent is not None:
        path.append(path[-1].parent)
    if not reinsert and not chosen.valid:
        raise ValueError("cannot commit a candidate with an invalid path")
    if not reinsert and repl.incoming in pos:
        raise RuntimeError(f"incoming block {repl.incoming:#x} already resident")
    for c in path:
        if lines[c.position.way][c.position.index] != c.address:
            stale = f"position {c.position} no longer holds {c.address!r}"
            raise RuntimeError(f"stale walk path: {stale}")
    if reinsert:
        array.evict_address(repl.incoming)
        return oracle_commit(array, repl, chosen)
    if chosen.address is not None:
        array.evict_address(chosen.address)  # the subclass's departure hook
    moves = [(c.position, p.address) for c, p in zip(path, path[1:])]
    for to, block in [*moves, (path[-1].position, repl.incoming)]:
        if block != repl.incoming:  # relocated: detached, not departed
            CacheArray.evict_address(array, block)
        if lines[to.way][to.index] is not None:  # the old ``_write``
            del pos[lines[to.way][to.index]]
        lines[to.way][to.index], pos[block] = block, to
    if isinstance(array, ZCacheArray):
        array._homes[repl.incoming] = repl.homes or array._hash_homes(repl.incoming)
    if hasattr(array, "_free"):
        array._free.discard(chosen.position.index)
    return CommitResult(chosen.address, len(path) - 1)


def state(array):
    """Everything a commit may write, as comparable data."""
    return (
        copy.deepcopy(array._lines), dict(array._pos),
        dict(getattr(array, "_homes", {})), sorted(getattr(array, "_free", ())),
    )


def outcome(commit, array):
    """What ``commit()`` returned or raised, and the array it left.

    A path through one block twice — only a corrupted ``invalid`` set
    lets one be committed — fails partway with a ``KeyError`` on both
    sides; there only the error type is compared.
    """
    try:
        result = commit()
    except (RuntimeError, ValueError) as exc:
        result = (type(exc), str(exc))
    except KeyError:
        return KeyError
    return result, state(array)


def path_blocks(repl, node):
    """The blocks recorded on node ``node``'s path."""
    chain = repl.node(node)
    blocks = []
    while chain is not None:
        if chain.address is not None:
            blocks.append(chain.address)
        chain = chain.parent
    return blocks


@given(
    array=st.sampled_from(sorted(ARRAYS)),
    seed=st.integers(0, 2**16),
    fill=st.integers(0, 40),
    pins=st.integers(0, 30),
    corrupt=st.booleans(),
    picked=st.booleans(),
    stale=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_index_commit_matches_the_candidate_commit(
    array, seed, fill, pins, corrupt, picked, stale
):
    rng = random.Random(seed)
    cache = Cache(ARRAYS[array](), LRU())
    for _ in range(fill):
        cache.access(rng.randrange(64))
    for block in rng.sample(sorted(cache.resident()), min(pins, len(cache))):
        cache.pin(block)
    repl = cache.array.build_replacement(1000 + seed)
    n = len(repl.addresses)
    if corrupt and n:
        # One block recorded at two nodes (the copy's line holds another
        # block), among invalid nodes.
        early, late = sorted(rng.sample(range(n), 2) if n > 1 else [0, 0])
        repl.addresses[early] = repl.addresses[late]
        repl.invalid = set(rng.sample(range(n), rng.randrange(n))) or None
    try:
        node = cache._pick(repl) if picked or not n else rng.randrange(n)
    except RuntimeError:  # every node masked invalid
        node = -1
    assume(node >= 0)
    blocks = path_blocks(repl, node)
    if stale and blocks:  # an invalidation lands between walk and commit
        cache.invalidate(rng.choice(blocks))
    arrays = [copy.deepcopy(cache.array) for _ in range(2)]
    records = [copy.deepcopy(repl) for _ in range(2)]
    before = state(cache.array)
    got = outcome(lambda: cache.array.commit_replacement(repl, node), cache.array)
    want = outcome(
        lambda: oracle_commit(arrays[0], records[0], records[0].node(node)), arrays[0]
    )
    view = outcome(
        lambda: arrays[1].commit_replacement(records[1], records[1].node(node)),
        arrays[1],
    )
    assert got == want == view
    if got is KeyError:
        return
    if isinstance(got[0], CommitResult):
        cache.array.check_invariants()
    else:
        assert got[1] == before  # a rejected commit writes nothing


def phase2_win(cache, first):
    """The first miss from ``first`` on whose phase-1 victim phase 2
    wins: ``(repl, node, repl2, node2)``, or None."""
    for incoming in range(first, first + 40):
        repl = cache.array.build_replacement(incoming)
        node = cache._pick(repl)
        if node < 0 or repl.addresses[node] is None:
            continue  # a free slot: no victim to move
        repl2 = cache.array.build_reinsertion(repl.addresses[node])
        node2 = cache._pick(repl2, skip=repl.addresses[node])
        if node2 >= 0:
            return repl, node, repl2, node2
    return None


@given(seed=st.integers(0, 2**16), fill=st.integers(40, 120), invalidate=st.booleans())
@settings(max_examples=200, deadline=None)
def test_two_phase_commits_match_after_a_phase2_win(seed, fill, invalidate):
    rng = random.Random(seed)
    cache = TwoPhaseZCache(ZCacheArray(3, 8, levels=3, hash_seed=seed % 7), LRU())
    for _ in range(fill):
        cache.access(rng.randrange(64))
    array = cache.array
    win = phase2_win(cache, 1000 + seed)
    assume(win is not None)
    repl, node, repl2, node2 = win
    victim1 = repl.addresses[node]
    if invalidate:
        cache.invalidate(rng.choice(path_blocks(repl2, node2) + [victim1]))
    twin = copy.deepcopy(array)
    old1, old2 = copy.deepcopy(repl), copy.deepcopy(repl2)
    got = outcome(lambda: array.commit_reinsertion(repl2, node2), array)
    want = outcome(
        lambda: oracle_commit(twin, old2, old2.node(node2), reinsert=True), twin
    )
    assert got == want
    if got is KeyError or not isinstance(got[0], CommitResult):
        return
    # The landing: the phase-1 record marks victim1's old line free,
    # where the Candidate controller built that node by hand.
    repl.addresses[node] = None
    chosen = old1.node(node)
    freed = Candidate(chosen.position, None, chosen.level, chosen.parent)
    got = outcome(lambda: array.commit_replacement(repl, node), array)
    want = outcome(lambda: oracle_commit(twin, old1, freed), twin)
    assert got == want
