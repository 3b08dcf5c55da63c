"""Validation of the paper's analytical framework (Section IV-B).

The random-candidates cache *provably* achieves F_A(x) = x^n; these tests
reproduce the paper's experimental validation and the framework's key
comparative claims:

1. random-candidates matches x^n for several n, workloads, policies;
2. skew-associative caches closely match uniformity;
3. a fully-associative cache is the e = 1.0 ideal;
4. un-hashed set-associative caches deviate under conflict-heavy traffic.
"""

import math
import random

import pytest

from repro.assoc import TrackedPolicy, expected_priority
from repro.core import (
    Cache,
    RandomCandidatesArray,
    SetAssociativeArray,
    SkewAssociativeArray,
)
from repro.replacement import LFU, LRU, FIFO


def run(cache, trace):
    for addr in trace:
        cache.access(addr)
    return cache


def uniform_trace(n, footprint, seed):
    rng = random.Random(seed)
    return [rng.randrange(footprint) for _ in range(n)]


class TestRandomCandidatesMatchesUniformity:
    @pytest.mark.parametrize("n_cand", [4, 8, 16])
    def test_matches_xn_for_each_n(self, n_cand):
        t = TrackedPolicy(LRU())
        cache = Cache(RandomCandidatesArray(512, n_cand, seed=n_cand), t)
        run(cache, uniform_trace(20_000, 4096, seed=1))
        d = t.distribution()
        assert d.mean() == pytest.approx(expected_priority(n_cand), abs=0.02)
        assert d.ks_to_uniformity(n_cand) < 0.08

    @pytest.mark.parametrize("policy_factory", [LRU, FIFO, LFU])
    def test_policy_independent(self, policy_factory):
        # The framework decouples array from policy: the distribution
        # matches x^n under any policy with a global order.
        t = TrackedPolicy(policy_factory())
        cache = Cache(RandomCandidatesArray(256, 8, seed=3), t)
        run(cache, uniform_trace(15_000, 2048, seed=2))
        assert t.distribution().ks_to_uniformity(8) < 0.08

    def test_workload_independent(self):
        # Strided and uniform traces both match x^n.
        t = TrackedPolicy(LRU())
        cache = Cache(RandomCandidatesArray(256, 8, seed=4), t)
        strided = [(17 * i) % 4096 for i in range(15_000)]
        run(cache, strided)
        assert t.distribution().ks_to_uniformity(8) < 0.1


def test_fig2_n64_follows_the_finite_b_law_not_xn():
    """Fig. 2's n = 64 cache, as ``fig2.run(seed=0)`` builds it, after 10k,
    30k and 60k accesses. KS to x^n sits on a ties floor: the top rank
    keeps about n/B of the mass. KS to the exact finite-B law, on the
    rank lattice, falls with the sample count and stays inside the 1%
    critical value 1.63/sqrt(samples)."""
    blocks, n = 2048, 64
    t = TrackedPolicy(LRU())
    cache = Cache(RandomCandidatesArray(blocks, n, seed=n), t)
    stream = uniform_trace(60_000, 8 * blocks, seed=n)
    to_xn, on_lattice = [], []
    done = 0
    for stop in (10_000, 30_000, 60_000):
        run(cache, stream[done:stop])
        done = stop
        d = t.distribution()
        to_xn.append(d.ks_to_uniformity(n))
        on_lattice.append(d.ks_on_lattice(n, blocks))
        assert on_lattice[-1] < 1.63 / math.sqrt(len(d))
    assert min(to_xn) > 0.025
    assert on_lattice[-1] < on_lattice[0]
    assert on_lattice[-1] < to_xn[-1] / 4


class TestSkewMatchesUniformity:
    @pytest.mark.parametrize("ways,lines", [(4, 128), (8, 64)])
    def test_skew_near_xw(self, ways, lines):
        t = TrackedPolicy(LRU())
        cache = Cache(SkewAssociativeArray(ways, lines, hash_seed=5), t)
        run(cache, uniform_trace(30_000, 8 * ways * lines, seed=6))
        d = t.distribution()
        assert d.ks_to_uniformity(ways) < 0.06
        assert d.effective_candidates() == pytest.approx(ways, rel=0.15)


class TestComparativeClaims:
    def test_unhashed_set_associative_deviates_on_strides(self):
        # Hot-set conflict traffic on top of a resident background: the
        # conflict victims are recently-used blocks while old blocks sit
        # safe in other sets, so eviction priorities collapse far below
        # the uniformity curve (paper Fig. 3a pathology).
        t = TrackedPolicy(LRU())
        cache = Cache(SetAssociativeArray(4, 64, hash_kind="bitsel"), t)
        rng = random.Random(11)
        trace = []
        for i in range(25_000):
            if i % 2:
                trace.append(((i // 2) % 64) * 64)  # set-0 conflict churn
            else:
                trace.append(rng.randrange(300))  # background fills sets
        run(cache, trace)
        d = t.distribution()
        assert d.mean() < expected_priority(4) - 0.05

    def test_skew_beats_set_associative_same_ways(self):
        trace = []
        rng = random.Random(7)
        # Mixed stride + random traffic: hard on the un-hashed index.
        for i in range(25_000):
            trace.append((i * 64) % 8192 if i % 2 else rng.randrange(8192))
        t_sa = TrackedPolicy(LRU())
        run(Cache(SetAssociativeArray(4, 64, hash_kind="bitsel"), t_sa), trace)
        t_sk = TrackedPolicy(LRU())
        run(Cache(SkewAssociativeArray(4, 64, hash_seed=8), t_sk), trace)
        assert t_sk.distribution().mean() > t_sa.distribution().mean()
