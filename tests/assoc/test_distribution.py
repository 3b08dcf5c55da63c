"""Tests for the associativity distribution machinery."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assoc import (
    AssociativityDistribution,
    expected_priority,
    uniformity_cdf,
    uniformity_cdf_exact,
)


class TestUniformityCdfExact:
    def test_lattice_values(self):
        cdf = uniformity_cdf_exact(4, 5)
        for rank in range(5):
            assert cdf(rank / 4) == ((rank + 1) / 5) ** 4
        assert cdf(0.3) == cdf(0.25)  # constant between lattice points
        assert cdf(-0.1) == 0.0
        assert cdf(1.0) == 1.0

    def test_top_rank_holds_about_n_over_b(self):
        cdf = uniformity_cdf_exact(64, 2048)
        assert 1.0 - cdf(2046 / 2047) == pytest.approx(64 / 2048, rel=0.02)

    def test_tends_to_xn(self):
        gaps = []
        for blocks in (64, 1024, 16384):
            cdf, limit = uniformity_cdf_exact(8, blocks), uniformity_cdf(8)
            gaps.append(max(abs(cdf(x) - limit(x)) for x in np.linspace(0, 1, 501)))
        assert gaps == sorted(gaps, reverse=True) and gaps[-1] < 0.001

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            uniformity_cdf_exact(0, 16)
        with pytest.raises(ValueError):
            uniformity_cdf_exact(4, 1)


class TestKsOnLattice:
    def test_exact_law_sample_is_close(self):
        rng = np.random.default_rng(0)
        ranks = rng.integers(0, 100, size=(20_000, 3)).max(axis=1)
        d = AssociativityDistribution(ranks / 99)
        assert d.ks_on_lattice(3, 100) < 1.63 / math.sqrt(len(d))
        assert d.ks_on_lattice(1, 100) > 0.2

    def test_off_lattice_samples_rejected(self):
        with pytest.raises(ValueError, match="ranks among 100"):
            AssociativityDistribution([0.5, 0.123456]).ks_on_lattice(2, 100)


class TestUniformityCdf:
    def test_analytic_values(self):
        cdf = uniformity_cdf(16)
        assert cdf(0.5) == pytest.approx(0.5**16)
        assert cdf(0.0) == 0.0
        assert cdf(1.0) == 1.0
        assert cdf(-1.0) == 0.0
        assert cdf(2.0) == 1.0

    def test_paper_headline_number(self):
        # "for 16 replacement candidates, the probability of evicting a
        # block with e < 0.4 is 10^-6" (Section IV-B; 0.4^16 = 4.3e-7,
        # which the paper rounds to the nearest order of magnitude).
        assert uniformity_cdf(16)(0.4) == pytest.approx(0.4**16)
        assert 1e-7 < uniformity_cdf(16)(0.4) < 1e-6

    def test_more_candidates_more_skew(self):
        x = 0.9
        values = [uniformity_cdf(n)(x) for n in (4, 8, 16, 64)]
        assert values == sorted(values, reverse=True)

    def test_rejects_zero_candidates(self):
        with pytest.raises(ValueError):
            uniformity_cdf(0)


class TestExpectedPriority:
    def test_formula(self):
        assert expected_priority(1) == pytest.approx(0.5)
        assert expected_priority(52) == pytest.approx(52 / 53)

    def test_monotone_in_candidates(self):
        vals = [expected_priority(n) for n in range(1, 65)]
        assert vals == sorted(vals)


class TestDistribution:
    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            AssociativityDistribution([])
        with pytest.raises(ValueError):
            AssociativityDistribution([0.5, 1.5])
        with pytest.raises(ValueError):  # NaN is not in [0, 1] either
            AssociativityDistribution([0.5, math.nan, 0.9])

    def test_cdf_and_quantiles(self):
        d = AssociativityDistribution([0.2, 0.4, 0.6, 0.8])
        assert d.cdf([0.5])[0] == pytest.approx(0.5)
        assert d.quantile(0.0) == pytest.approx(0.2)
        assert d.quantile(1.0) == pytest.approx(0.8)

    def test_fraction_below(self):
        d = AssociativityDistribution([0.1, 0.5, 0.9])
        assert d.fraction_below(0.5) == pytest.approx(1 / 3)

    def test_effective_candidates_inverts_mean(self):
        # A sample with mean n/(n+1) recovers n.
        rng = np.random.default_rng(0)
        n = 8
        samples = np.max(rng.random((50_000, n)), axis=1)
        d = AssociativityDistribution(samples)
        assert d.effective_candidates() == pytest.approx(n, rel=0.05)

    def test_effective_candidates_saturates(self):
        d = AssociativityDistribution([1.0, 1.0])
        assert math.isinf(d.effective_candidates())

    def test_ks_identifies_correct_n(self):
        rng = np.random.default_rng(1)
        samples = np.max(rng.random((20_000, 16)), axis=1)
        d = AssociativityDistribution(samples)
        assert d.ks_to_uniformity(16) < 0.02
        assert d.ks_to_uniformity(4) > 0.2

    def test_summary_keys(self):
        d = AssociativityDistribution([0.5] * 10)
        s = d.summary()
        assert set(s) == {
            "samples",
            "mean",
            "p10",
            "p50",
            "frac_below_0.4",
            "effective_candidates",
        }

    @given(
        samples=st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=100
        )
    )
    @settings(max_examples=50)
    def test_cdf_monotone_property(self, samples):
        d = AssociativityDistribution(samples)
        xs = np.linspace(0, 1, 21)
        cdf = d.cdf(xs)
        assert all(a <= b + 1e-12 for a, b in zip(cdf, cdf[1:]))
        assert cdf[-1] == pytest.approx(1.0)
