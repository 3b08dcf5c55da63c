"""The controller's one pick against the two-pass pick it replaced.

``Cache._pick`` reads the flat walk record once and returns a node
index: the first usable free slot, else the policy's choice among the
evictable blocks in candidate order, landed at the first usable node
holding it. The oracle below is the pick as it used to be made — a
``Candidate`` per node, a scan for the shallowest free slot and the
shallowest node per block, then the policy — and both must land the
fill on the same line, level and block for every array type, with
pinned blocks, invalid nodes, duplicate addresses and the two-phase
controller's ``skip``, under a policy that ignores candidate order
(LRU) and two that do not (random, SRRIP).
"""

import copy
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Cache,
    Candidate,
    FullyAssociativeArray,
    RandomCandidatesArray,
    SetAssociativeArray,
    SkewAssociativeArray,
    ZCacheArray,
)
from repro.replacement import LRU, SRRIP, RandomPolicy

ARRAYS = {
    "set-associative": lambda: SetAssociativeArray(4, 8, hash_kind="h3", hash_seed=1),
    "skew": lambda: SkewAssociativeArray(4, 8, hash_seed=2),
    "zcache": lambda: ZCacheArray(3, 8, levels=3, hash_seed=3),
    "random-candidates": lambda: RandomCandidatesArray(24, 8, seed=4),
    "fully-associative": lambda: FullyAssociativeArray(24),
}
POLICIES = {"lru": LRU, "random": lambda: RandomPolicy(seed=5), "srrip": SRRIP}


def oracle_pick(cache, repl, skip=None):
    """``_scan`` + ``_choose_victim`` (phase 2: ``_phase2_choice``):
    ``(free slot, victim)`` as ``Candidate``s."""
    pinned, policy = cache._pinned, cache.policy
    if repl.exhaustive and not repl.candidates:
        victim = policy.global_victim()
        if victim is None or victim in pinned:
            unpinned = [a for a in cache.array.resident() if a not in pinned]
            if not unpinned:
                return None, None
            victim = policy.select_victim(unpinned)
        return None, Candidate(cache.array.lookup(victim), victim)
    empty, by_address = None, {}
    for cand in repl.candidates:
        if not cand.valid:
            continue
        if cand.address is None:
            if empty is None or cand.level < empty.level:
                empty = cand
        elif cand.address != skip and cand.address not in pinned:
            prev = by_address.get(cand.address)
            if prev is None or cand.level < prev.level:
                by_address[cand.address] = cand
    if empty is not None:
        return empty, None
    if not by_address:
        if pinned or skip is not None:
            return None, None
        raise RuntimeError("no usable replacement candidates")
    victim = policy.select_victim([*([] if skip is None else [skip]), *by_address])
    return None, (None if victim == skip else by_address[victim])


def landing(pick, cache, repl, skip):
    """What a pick decided, as comparable data: ``(way, index, level,
    address, valid)`` of the line the fill lands on, None for no
    landing. Each side gets its own copy of the record: the index pick
    appends an exhaustive record's victim to it."""
    repl = copy.deepcopy(repl)
    try:
        landed = pick(cache, repl, skip)
    except RuntimeError:
        return "raises"
    if isinstance(landed, tuple):  # the oracle's (free slot, victim)
        empty, victim = landed
        c = victim if empty is None else empty
        return None if c is None else (*c.position, c.level, c.address, c.valid)
    if landed < 0:
        return None
    return (
        repl.ways[landed], repl.indices[landed], repl.level(landed),
        repl.addresses[landed], landed not in (repl.invalid or ()),
    )


@given(
    array=st.sampled_from(sorted(ARRAYS)),
    policy=st.sampled_from(sorted(POLICIES)),
    seed=st.integers(0, 2**16),
    fill=st.integers(0, 40),
    pins=st.integers(0, 30),
    corrupt=st.booleans(),
    phase2=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_pick_matches_the_two_pass_oracle(
    array, policy, seed, fill, pins, corrupt, phase2
):
    rng = random.Random(seed)
    cache = Cache(ARRAYS[array](), POLICIES[policy]())
    for _ in range(fill):
        cache.access(rng.randrange(64))
    for block in rng.sample(sorted(cache.resident()), min(pins, len(cache))):
        cache.pin(block)
    repl = cache.array.build_replacement(1000 + seed)
    n = len(repl.addresses)
    if corrupt and n:
        # One block recorded at two nodes, the earlier copy often
        # invalid, among other invalid nodes.
        early, late = sorted(rng.sample(range(n), 2) if n > 1 else [0, 0])
        repl.addresses[early] = repl.addresses[late]
        invalid = set(rng.sample(range(n), rng.randrange(n)))
        invalid.discard(late)
        if rng.random() < 0.5:
            invalid.add(early)
        repl.invalid = invalid or None
    held = [a for a in repl.addresses if a is not None]
    skip = rng.choice(held) if phase2 and held else None
    before = copy.deepcopy(cache.policy)
    got = landing(Cache._pick, cache, repl, skip)
    cache.policy = before  # the oracle sees the policy state _pick saw
    assert got == landing(oracle_pick, cache, repl, skip)
