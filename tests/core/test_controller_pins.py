"""Bit-identity pins of the controller's counters on scripted traces.

``tests/goldens/replay_pins.json`` pins what a CMP replay reports
(hits, misses, walk tag reads, relocations, writebacks, cycles), but
not ``tag_writes``, ``data_reads``, ``data_writes`` or ``fills_empty``,
and no replay pins a block, invalidates one, or goes through
``TwoPhaseZCache``'s off-lock ``prepare_fill`` / ``commit_prepared``.
Each case below drives one cache through a seeded script of reads,
writes, L1 writebacks, invalidations and pin/unpin steps, including a
miss with every block pinned (a bypass), and digests every
``AccessResult``, every return value, every ``CacheStats`` counter (and
the array's walk counters) after every step, and the final contents.
The digests were recorded before the miss path was folded into one
routine and must not change with it.
"""

import hashlib
import random

import pytest

from repro.core import (
    Cache,
    FullyAssociativeArray,
    RandomCandidatesArray,
    SetAssociativeArray,
    SkewAssociativeArray,
    StaleWalkError,
    TwoPhaseZCache,
    ZCacheArray,
)
from repro.replacement import LRU, SRRIP, RandomPolicy

ARRAYS = {
    "sa4h": lambda: SetAssociativeArray(4, 16, hash_kind="h3", hash_seed=5),
    "sk4": lambda: SkewAssociativeArray(4, 16, hash_seed=5),
    "z4_16": lambda: ZCacheArray(4, 16, levels=2, hash_seed=5),
    "z4_52": lambda: ZCacheArray(4, 16, levels=3, hash_seed=5),
    "z4_52_dfs": lambda: ZCacheArray(4, 16, levels=3, hash_seed=5,
                                     strategy="dfs", seed=2),
    "z4_52_exact": lambda: ZCacheArray(4, 16, levels=3, hash_seed=5,
                                       repeat_filter="exact"),
    "z4_52_bloom": lambda: ZCacheArray(4, 16, levels=3, hash_seed=5,
                                       repeat_filter="bloom"),
    "rc16": lambda: RandomCandidatesArray(64, 16, seed=3),
    "fa": lambda: FullyAssociativeArray(64),
}
POLICIES = {
    "lru": LRU,
    "srrip": SRRIP,
    "random": lambda: RandomPolicy(seed=4),
}

#: sha256 prefixes recorded on the controller before the fold
PINS = {
    "sa4h/lru": "dccfd3ad48bf886c",
    "sa4h/srrip": "8b5e9f49a470e196",
    "sa4h/random": "5a1994e6b48d363d",
    "sk4/lru": "d811794c5be0f191",
    "sk4/srrip": "53febc8f7e71752c",
    "sk4/random": "d5c94fc71b951d74",
    "z4_16/lru": "fd99965f56457a41",
    "z4_16/srrip": "3ca76f48e48eefa0",
    "z4_16/random": "841a9cc9a0a469d2",
    "z4_52/lru": "8684c0f2c5f7b2e3",
    "z4_52/srrip": "1c3bc08e4a789786",
    "z4_52/random": "116087db60dfc265",
    "z4_52_dfs/lru": "048bf1368d7fe99e",
    "z4_52_dfs/srrip": "e3142074ac162235",
    "z4_52_dfs/random": "a0e33dc3193da3de",
    "z4_52_exact/lru": "876e978e09da8550",
    "z4_52_exact/srrip": "ee7513bd44038f2d",
    "z4_52_exact/random": "69d0e8c28a9f5d2e",
    "z4_52_bloom/lru": "a337bcb70f02abe4",
    "z4_52_bloom/srrip": "c560a0731d8d7f7a",
    "z4_52_bloom/random": "35b5aaaf5b16c358",
    "rc16/lru": "bcf7f00a61440fcd",
    "rc16/srrip": "5802c073b9214b65",
    "rc16/random": "899341b590523379",
    "fa/lru": "ba7034d7570fa50f",
    "fa/srrip": "5cdf375d42af77aa",
    "fa/random": "db70719d5af43da5",
    "twophase/access/lru": "33faa938265ec69b",
    "twophase/access/srrip": "d433832efff6581e",
    "twophase/prepared/lru": "5ce4b22f2c463858",
    "twophase/prepared/srrip": "c6644d87434488df",
}


class Log:
    """A running sha256 over everything a step shows."""

    def __init__(self, cache: Cache) -> None:
        self.cache = cache
        self.digest = hashlib.sha256()

    def __call__(self, *items) -> None:
        cache = self.cache
        counters = cache.stats.counters()
        state = [repr(items), sorted((k, c.value) for k, c in counters.items())]
        walk = getattr(cache.array, "stats", None)
        if walk is not None:
            state.append(sorted((k, c.value) for k, c in walk.counters().items()))
            state.append(list(walk.level_hist))
        if isinstance(cache, TwoPhaseZCache):
            state.append((cache.second_phase_walks, cache.second_phase_wins,
                          cache.stale_retries))
        self.digest.update(repr(state).encode())

    def final(self) -> str:
        cache = self.cache
        contents = sorted(
            (a, tuple(cache.array.lookup(a)), cache.is_dirty(a), cache.is_pinned(a))
            for a in cache.resident()
        )
        self.digest.update(repr(contents).encode())
        return self.digest.hexdigest()[:16]


def drive(cache: Cache, fill) -> str:
    """Run the script on ``cache``; ``fill(address, is_write)`` serves a miss."""
    log = Log(cache)
    rng = random.Random(11)
    footprint = 3 * cache.array.num_blocks
    for step in range(1500):
        address = rng.randrange(footprint)
        roll = rng.random()
        if step % 500 == 499:
            # Pin every resident block: a full array's miss then bypasses.
            resident = list(cache.resident())
            for a in resident:
                cache.pin(a)
            log("pin-all", len(resident), fill(footprint + step, rng.random() < 0.5))
            for a in resident:
                cache.unpin(a)
        elif roll < 0.06:
            log("invalidate", address, cache.invalidate(address))
        elif roll < 0.12:
            log("writeback", address, cache.absorb_writeback(address))
        elif roll < 0.16 and address in cache:
            cache.pin(address)
            log("pin", address)
        elif roll < 0.20:
            cache.unpin(address)
            log("unpin", address)
        else:
            is_write = roll < 0.45
            if address in cache:
                log("hit", cache.access(address, is_write))
            else:
                log("miss", fill(address, is_write))
    return log.final()


def prepared_fill(cache: TwoPhaseZCache):
    """A miss through the off-lock surface; every fifth plan goes stale
    first (an invalidation of a walked block lands between the walk and
    the commit) and is re-prepared."""
    count = [0]

    def fill(address, is_write):
        plan = cache.prepare_fill(address)
        count[0] += 1
        if count[0] % 5 == 0:
            walked = [a for a in plan.addresses if a is not None]
            if walked:
                cache.invalidate(walked[-1])
                with pytest.raises(StaleWalkError):
                    cache.commit_prepared(address, plan, is_write)
                plan = cache.prepare_fill(address)
        return cache.commit_prepared(address, plan, is_write)

    return fill


@pytest.mark.parametrize("array", ARRAYS)
@pytest.mark.parametrize("policy", POLICIES)
def test_controller_pins(array, policy):
    cache = Cache(ARRAYS[array](), POLICIES[policy]())
    got = drive(cache, cache.access)
    assert cache.stats.pin_overflows > 0
    assert cache.stats.fills_empty > 0 and cache.stats.writebacks > 0
    assert got == PINS[f"{array}/{policy}"]


@pytest.mark.parametrize("mode", ("access", "prepared"))
@pytest.mark.parametrize("policy", ("lru", "srrip"))
def test_twophase_pins(mode, policy):
    cache = TwoPhaseZCache(ZCacheArray(4, 16, levels=3, hash_seed=5),
                           POLICIES[policy]())
    fill = cache.access if mode == "access" else prepared_fill(cache)
    got = drive(cache, fill)
    # In access mode the retries are phase-2 relocations that staled
    # the phase-1 path; prepared mode adds the rejected plans.
    assert cache.second_phase_wins > 0 and cache.stale_retries > 0
    assert got == PINS[f"twophase/{mode}/{policy}"]
