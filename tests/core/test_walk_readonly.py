"""The replacement walk only reads (paper Section III-D).

Candidates are collected first; only a commit relocates. ZServe's
``TwoPhaseZCache.prepare_fill`` runs off the shard lock because of it,
as Breeze's concurrent fill does. A state comparison cannot see every
violation: on a miss the incoming address is not resident, so a walk
that pops it from the position table changes nothing. So each case
fills an array, then freezes its storage — ``_lines`` rows become
tuples, ``_pos`` and ``_homes`` become read-only mappings — and walks
for absent addresses (plus reinsertion walks for resident ones, where
the array has them). Any write raises.
"""

import random
from types import MappingProxyType

import pytest

from repro.core import (
    Cache,
    RandomCandidatesArray,
    SetAssociativeArray,
    SkewAssociativeArray,
    TwoPhaseZCache,
    ZCacheArray,
)
from repro.replacement import LRU

WALKS = 76

DESIGNS = {
    "Z4/16": lambda: ZCacheArray(4, 64, levels=2, hash_seed=1),
    "Z4/52-bfs": lambda: ZCacheArray(4, 64, levels=3, hash_seed=2),
    "Z4/52-dfs": lambda: ZCacheArray(
        4, 64, levels=3, strategy="dfs", hash_seed=3, seed=3
    ),
    "SK-4": lambda: SkewAssociativeArray(4, 64, hash_seed=4),
    "SA-4": lambda: SetAssociativeArray(4, 64),
    "RC-16": lambda: RandomCandidatesArray(256, 16, seed=5),
}


def filled(cache, seed=7):
    """Run ``cache`` until its array is full; return absent addresses."""
    rng = random.Random(seed)
    array = cache.array
    footprint = 4 * array.num_blocks
    while len(array) < array.num_blocks:
        cache.access(rng.randrange(footprint))
    absent = []
    while len(absent) < WALKS:
        address = rng.randrange(1 << 32)
        if address not in array:
            absent.append(address)
    return absent


def freeze(array):
    """Make every write to the array's storage raise."""
    array._lines = tuple(tuple(row) for row in array._lines)
    array._pos = MappingProxyType(array._pos)
    if hasattr(array, "_homes"):
        array._homes = MappingProxyType(array._homes)


@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_walk_writes_no_array_state(design):
    cache = Cache(DESIGNS[design](), LRU())
    absent = filled(cache)
    array = cache.array
    resident = sorted(array.resident())[:WALKS]
    freeze(array)
    for address in absent:
        array.build_replacement(address)
    if isinstance(array, ZCacheArray):
        for address in resident:
            array.build_reinsertion(address)


def test_prepare_fill_writes_no_array_state():
    cache = TwoPhaseZCache(ZCacheArray(4, 64, levels=2, hash_seed=1), LRU())
    absent = filled(cache)
    freeze(cache.array)
    for address in absent:
        cache.prepare_fill(address)


@pytest.mark.parametrize("design", ["SA-4", "Z4/16"])
def test_turbo_collect_writes_no_tags(design):
    cache = Cache(DESIGNS[design](), LRU(), engine="turbo")
    assert cache.engine == "turbo"
    absent = filled(cache)
    core = cache._turbo
    core.tags.flags.writeable = False
    for address in absent:
        core.walk.collect(address, core.tags)


def test_a_planted_walk_write_is_caught(monkeypatch):
    """The freeze bites: a walk that pops the (absent) incoming address
    from the position table writes nothing visible, and still raises."""
    original = ZCacheArray.build_replacement

    def popping(self, address):
        self._pos.pop(address, None)
        return original(self, address)

    monkeypatch.setattr(ZCacheArray, "build_replacement", popping)
    cache = Cache(DESIGNS["Z4/16"](), LRU())
    absent = filled(cache)
    freeze(cache.array)
    with pytest.raises(AttributeError):
        cache.array.build_replacement(absent[0])
