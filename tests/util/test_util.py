"""Tests for the shared substrates: Bloom filter, free slots, stats."""

import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.assoc import AssociativityDistribution
from repro.util import BloomFilter, empirical_cdf, geometric_mean
from repro.util.freeslots import FreeSlots
from repro.util.statistics import ks_distance, unit_grid


class TestBloomFilter:
    def test_no_false_negatives(self):
        bf = BloomFilter(num_bits=2048, num_hashes=3)
        keys = list(range(0, 1000, 7))
        for k in keys:
            bf.add(k)
        assert all(k in bf for k in keys)

    def test_false_positive_rate_reasonable(self):
        bf = BloomFilter(num_bits=4096, num_hashes=3)
        for k in range(200):
            bf.add(k)
        fps = sum(1 for k in range(10_000, 12_000) if k in bf)
        assert fps / 2000 < 0.05

    def test_clear(self):
        bf = BloomFilter(64)
        bf.add(1)
        bf.clear()
        assert 1 not in bf
        assert len(bf) == 0

    def test_optimal_hash_count_from_hint(self):
        bf = BloomFilter(num_bits=1000, expected_items=100)
        assert bf.num_hashes == round(math.log(2) * 10)

    def test_theoretical_fpr_monotone(self):
        bf = BloomFilter(256, num_hashes=2)
        rates = []
        for k in range(50):
            bf.add(k)
            rates.append(bf.false_positive_rate())
        assert rates == sorted(rates)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            BloomFilter(0)
        with pytest.raises(ValueError):
            BloomFilter(64, num_hashes=0)


class TestFreeSlots:
    def test_starts_full_and_hands_out_lowest_first(self):
        free = FreeSlots(4)
        taken = []
        while free:
            taken.append(free.lowest())
            free.discard(taken[-1])
        assert taken == [0, 1, 2, 3]
        with pytest.raises(ValueError):
            free.lowest()

    def test_discard_of_a_taken_slot_is_a_no_op(self):
        free = FreeSlots(3)
        free.discard(1)
        free.discard(1)
        free.discard(7)
        assert sorted(free) == [0, 2]

    @given(st.lists(st.integers(0, 15), max_size=80))
    def test_matches_a_set_and_min(self, toggles):
        free, ref = FreeSlots(16), set(range(16))
        for slot in toggles:
            if slot in ref:
                ref.discard(slot)
                free.discard(slot)
            else:
                ref.add(slot)
                free.add(slot)
            assert len(free) == len(ref) and sorted(free) == sorted(ref)
            if ref:
                assert free.lowest() == min(ref)


class TestStatistics:
    def test_geometric_mean_basic(self):
        assert geometric_mean([2, 8]) == pytest.approx(4.0)
        assert geometric_mean([5]) == pytest.approx(5.0)

    def test_geometric_mean_rejects_bad_input(self):
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_empirical_cdf(self):
        cdf = empirical_cdf([0.1, 0.5, 0.9], [0.0, 0.1, 0.5, 1.0])
        assert list(cdf) == [0.0, pytest.approx(1 / 3), pytest.approx(2 / 3), 1.0]

    def test_empirical_cdf_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_cdf([], [0.5])

    def test_ks_distance_of_uniform_sample(self):
        xs = [(i + 0.5) / 1000 for i in range(1000)]
        assert ks_distance(xs, lambda x: x) < 0.01

    def test_ks_distance_detects_mismatch(self):
        xs = [0.9] * 100
        assert ks_distance(xs, lambda x: x) > 0.8

    def test_unit_grid_is_numpy_linspace(self):
        for num in (2, 11, 101, 201):
            assert unit_grid(num) == np.linspace(0.0, 1.0, num).tolist()

    def test_cdf_and_ks_are_the_numpy_formulas_bit_for_bit(self):
        rng = random.Random(3)
        samples = [rng.randrange(50) / 49 for _ in range(500)]  # with ties
        xs = unit_grid(101)
        ordered = np.sort(samples)
        n = len(ordered)
        counts = np.searchsorted(ordered, xs, side="right")
        assert empirical_cdf(samples, xs) == (counts / n).tolist()
        theo = np.asarray([x**4 for x in ordered])
        expected = max(
            np.max(np.abs(np.arange(1, n + 1) / n - theo)),
            np.max(np.abs(theo - np.arange(0, n) / n)),
        )
        assert ks_distance(samples, lambda x: x**4) == float(expected)

    @pytest.mark.parametrize(
        "sizes",
        [range(1, 300), [511, 512, 513, 1023, 1024, 1025], [4095, 4096, 4097, 20000]],
        ids=["1-299", "511-1025", "4095-20000"],
    )
    def test_mean_and_quantile_are_numpy_bit_for_bit(self, sizes):
        """``AssociativityDistribution.mean``/``quantile`` pin numpy's
        pairwise add-reduce and linear interpolation (fig3's goldens)."""
        rng = random.Random(len(sizes))
        quantiles = (0.0, 0.1, 0.25, 1 / 3, 0.5, 0.6, 0.75, 0.9, 0.99, 1.0)
        for n in sizes:
            lattice = n % 2 == 0  # ranks among 2048 blocks: ties and gaps
            ordered = sorted(
                rng.randrange(2048) / 2047 if lattice else rng.random()
                for _ in range(n)
            )
            dist = AssociativityDistribution(ordered)
            assert dist.mean() == float(np.mean(ordered)), n
            for q in quantiles:
                assert dist.quantile(q) == float(np.quantile(ordered, q)), (n, q)


class TestBloomBitRounding:
    def test_num_bits_rounds_up_to_word_multiple(self):
        assert BloomFilter(100).num_bits == 128
        assert BloomFilter(1).num_bits == 64
        assert BloomFilter(65).num_bits == 128

    def test_exact_multiple_unchanged(self):
        assert BloomFilter(64).num_bits == 64
        assert BloomFilter(2048).num_bits == 2048

    def test_hash_hint_uses_rounded_size(self):
        # 100 -> 128 bits; k = round(ln2 * 128/16) = 6, not round(ln2*100/16)=4
        bf = BloomFilter(num_bits=100, expected_items=16)
        assert bf.num_hashes == round(math.log(2) * 128 / 16)

    def test_rounded_filter_still_correct(self):
        bf = BloomFilter(100, num_hashes=3)
        for k in range(50):
            bf.add(k)
        assert all(k in bf for k in range(50))
