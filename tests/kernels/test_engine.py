"""Engine selection and fallback gating."""

import pytest

from repro.assoc.measurement import TrackedPolicy
from repro.core.controller import Cache
from repro.core.randomcand import RandomCandidatesArray
from repro.core.setassoc import SetAssociativeArray
from repro.core.skew import SkewAssociativeArray
from repro.core.twophase import TwoPhaseZCache
from repro.core.zcache import ZCacheArray
from repro.kernels.engine import TurboCore, try_build_turbo
from repro.replacement.lru import FIFO, LRU
from repro.replacement.random_policy import RandomPolicy
from repro.replacement.srrip import SRRIP


def _snapshot(cache):
    return {k: c.value for k, c in cache.stats.counters().items()}


def test_unknown_engine_rejected():
    with pytest.raises(ValueError, match="unknown engine"):
        Cache(SetAssociativeArray(2, 8), LRU(), engine="vroom")


@pytest.mark.parametrize(
    "make_array",
    [
        lambda: SetAssociativeArray(4, 16),
        lambda: SkewAssociativeArray(4, 16),
        lambda: ZCacheArray(4, 16, levels=2),
        lambda: RandomCandidatesArray(64, 8),
    ],
)
@pytest.mark.parametrize(
    "make_policy",
    [LRU, FIFO, RandomPolicy, lambda: TrackedPolicy(LRU())],
)
def test_supported_configs_get_turbo(make_array, make_policy):
    cache = Cache(make_array(), make_policy(), engine="turbo")
    assert cache.engine == "turbo"
    assert cache.requested_engine == "turbo"
    assert isinstance(cache._turbo, TurboCore)


def test_reference_is_default():
    cache = Cache(SetAssociativeArray(2, 8), LRU())
    assert cache.engine == "reference"
    assert cache.requested_engine == "reference"
    assert cache._turbo is None


@pytest.mark.parametrize(
    "make_cache",
    [
        # DFS walks, candidate caps and repeat filters change candidate
        # order/count — no kernel covers them.
        lambda: Cache(
            ZCacheArray(4, 16, levels=2, strategy="dfs"), LRU(), engine="turbo"
        ),
        lambda: Cache(
            ZCacheArray(4, 16, levels=2, candidate_limit=8), LRU(), engine="turbo"
        ),
        lambda: Cache(
            ZCacheArray(4, 16, levels=2, repeat_filter="bloom"),
            LRU(),
            engine="turbo",
        ),
        # Policies without a kernel.
        lambda: Cache(SetAssociativeArray(4, 16), SRRIP(), engine="turbo"),
        lambda: Cache(
            SetAssociativeArray(4, 16), TrackedPolicy(SRRIP()), engine="turbo"
        ),
        # The two-phase controller overrides the access protocol.
        lambda: TwoPhaseZCache(
            ZCacheArray(4, 16, levels=2), LRU(), engine="turbo"
        ),
    ],
)
def test_unsupported_configs_fall_back(make_cache):
    cache = make_cache()
    assert cache.requested_engine == "turbo"
    assert cache.engine == "reference"
    assert cache._turbo is None
    # The fallback still works.
    for address in range(100):
        cache.access(address)
    assert _snapshot(cache)["accesses"] == 100


def test_subclass_policies_fall_back():
    """Exact-type gating: a subclass may change scoring semantics."""

    class MyLRU(LRU):
        pass

    cache = Cache(SetAssociativeArray(4, 16), MyLRU(), engine="turbo")
    assert cache.engine == "reference"


def test_prepopulated_state_is_rejected():
    """try_build_turbo only accepts a pristine cache."""
    cache = Cache(ZCacheArray(4, 16, levels=2), LRU())
    for address in range(32):
        cache.access(address)
    assert try_build_turbo(cache) is None


def test_pin_raises_under_turbo():
    cache = Cache(ZCacheArray(4, 16, levels=2), LRU(), engine="turbo")
    cache.access(7)
    with pytest.raises(RuntimeError, match="pinning is not supported"):
        cache.pin(7)
