"""Turbo-fallback contract: gauge, one-shot warning, named reasons.

``engine="turbo"`` must always be safe to request: unsupported
configurations (victim-cache buffers, adaptive controllers, the
column-associative design) run the reference path, record an
``engine_fallback`` gauge, and warn exactly once per distinct reason —
naming the unsupported piece so a sweep's log says *why* it ran slow.
"""

import warnings

import pytest

from repro.core.adaptive import AdaptiveZCache
from repro.core.column import ColumnAssociativeCache
from repro.core.controller import Cache
from repro.core.fullyassoc import FullyAssociativeArray
from repro.core.randomcand import RandomCandidatesArray
from repro.core.setassoc import SetAssociativeArray
from repro.core.victim import VictimCache
from repro.core.zcache import ZCacheArray
from repro.kernels import engine as engine_mod
from repro.kernels.engine import (
    TurboFallbackWarning,
    try_build_turbo,
    try_build_turbo_explain,
)
from repro.assoc import TrackedPolicy
from repro.obs import ObsContext
from repro.replacement.lru import LRU


@pytest.fixture(autouse=True)
def _fresh_warning_state():
    """Isolate the one-shot dedup set per test."""
    saved = set(engine_mod._warned_reasons)
    engine_mod._warned_reasons.clear()
    yield
    engine_mod._warned_reasons.clear()
    engine_mod._warned_reasons.update(saved)


def test_adaptive_zcache_falls_back_with_named_reason():
    cache = AdaptiveZCache(ZCacheArray(4, 16), LRU())
    core, reason = try_build_turbo_explain(cache)
    assert core is None
    assert "AdaptiveZCache" in reason
    assert try_build_turbo(cache) is None


def test_column_associative_falls_back_with_named_reason():
    cache = ColumnAssociativeCache(64)
    core, reason = try_build_turbo_explain(cache)
    assert core is None
    assert "ColumnAssociativeCache" in reason


def test_victim_buffer_array_falls_back_with_named_reason():
    # The victim cache's fully-associative buffer is the unsupported
    # half; requesting turbo on such a cache degrades, warns, and runs.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cache = Cache(FullyAssociativeArray(8), LRU(), engine="turbo")
    assert cache.engine == "reference"
    assert cache.requested_engine == "turbo"
    fallback = [w for w in caught if w.category is TurboFallbackWarning]
    assert len(fallback) == 1
    assert "FullyAssociativeArray" in str(fallback[0].message)


def test_fallback_warning_is_one_shot_per_reason():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        Cache(FullyAssociativeArray(8), LRU(), engine="turbo")
        Cache(FullyAssociativeArray(8), LRU(), engine="turbo")
        # A different reason still gets its own (single) warning.
        pinned_host = Cache(SetAssociativeArray(4, 16), LRU())
        pinned_host.access(1)
        pinned_host.pin(1)
    with warnings.catch_warnings(record=True) as second:
        warnings.simplefilter("always")
        Cache(FullyAssociativeArray(8), LRU(), engine="turbo")
    fallback = [w for w in caught if w.category is TurboFallbackWarning]
    assert len(fallback) == 1
    assert not [w for w in second if w.category is TurboFallbackWarning]


def test_engine_fallback_gauge_records_degradation():
    obs = ObsContext()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TurboFallbackWarning)
        Cache(FullyAssociativeArray(8), LRU(), engine="turbo", obs=obs)
    assert obs.metrics.gauge("engine_fallback").value == 1
    assert obs.metrics.gauge("engine_turbo").value == 0

    obs_ok = ObsContext()
    cache = Cache(
        SetAssociativeArray(4, 16), LRU(), engine="turbo", obs=obs_ok
    )
    assert cache.engine == "turbo"
    assert obs_ok.metrics.gauge("engine_fallback").value == 0
    assert obs_ok.metrics.gauge("engine_turbo").value == 1


def test_victim_cache_runs_correctly_after_fallback():
    # The composed design never requests turbo itself; its behaviour
    # is unchanged by the fallback machinery existing.
    vc = VictimCache(4, 16, victim_entries=4)
    for address in range(200):
        vc.access(address % 96)
    assert vc.main.engine == "reference"
    assert vc.buffer.engine == "reference"
    counters = vc.stats.counters()
    assert counters["accesses"].value == 200


def _drawn_ahead_array():
    """A random-candidates array emptied after evicting fills: its RNG has
    run ahead of the slots still in its pool."""
    array = RandomCandidatesArray(64, 4, seed=5)
    cache = Cache(array, LRU())
    for address in range(200):
        cache.access(address)
    for address in list(cache.resident()):
        cache.invalidate(address)
    assert not array._pos and array._taken < len(array._pool)
    return array


def test_turbo_declines_a_random_candidates_array_that_drew_ahead():
    core, reason = try_build_turbo_explain(
        Cache(_drawn_ahead_array(), TrackedPolicy(LRU()))
    )
    assert core is None
    assert reason == "random-candidates array holds pooled draws"

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TurboFallbackWarning)
        turbo = Cache(_drawn_ahead_array(), TrackedPolicy(LRU()), engine="turbo")
    reference = Cache(_drawn_ahead_array(), TrackedPolicy(LRU()))
    assert turbo.engine == "reference"
    for address in range(300, 3300):
        address %= 700
        assert turbo.access(address) == reference.access(address)
    assert turbo.policy.priorities == reference.policy.priorities
    assert sorted(turbo.resident()) == sorted(reference.resident())
