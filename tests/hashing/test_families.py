"""Tests for bit-selection, the strong mixer, and family construction."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hashing import BitSelectHash, MixHash, make_hash_family
from repro.hashing.mixers import splitmix64


class TestBitSelect:
    def test_low_bits(self):
        h = BitSelectHash(256)
        assert h(0x12345) == 0x45
        assert h(0) == 0
        assert h(255) == 255
        assert h(256) == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            BitSelectHash(16)(-5)

    def test_strided_pathology(self):
        # Strides equal to num_lines all collide — the classic conflict
        # pattern hashing avoids.
        h = BitSelectHash(64)
        indexes = {h(base * 64) for base in range(100)}
        assert indexes == {0}


class TestSplitmix:
    def test_64bit_range(self):
        for v in (0, 1, 2**63, 2**64 - 1):
            assert 0 <= splitmix64(v) < 2**64

    def test_avalanche(self):
        # Flipping one input bit should flip roughly half the output bits.
        a, b = splitmix64(12345), splitmix64(12345 ^ 1)
        flipped = bin(a ^ b).count("1")
        assert 16 <= flipped <= 48

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_deterministic(self, v):
        assert splitmix64(v) == splitmix64(v)


class TestMixHash:
    def test_range_and_determinism(self):
        h = MixHash(1024, seed=4)
        vals = [h(x) for x in range(2000)]
        assert all(0 <= v < 1024 for v in vals)
        assert vals == [h(x) for x in range(2000)]

    @given(address=st.integers(0, 2**80), seed=st.integers(0, 2**70))
    def test_is_splitmix64_of_the_tweaked_address(self, address, seed):
        # __call__ carries the mixer inline; splitmix64 is the reference.
        h = MixHash(4096, seed=seed)
        assert h(address) == splitmix64(address ^ h._tweak) & 4095

    def test_seed_independence(self):
        a, b = MixHash(1024, seed=1), MixHash(1024, seed=2)
        same = sum(1 for x in range(4096) if a(x) == b(x))
        # Two independent hashes agree about 1/1024 of the time.
        assert same < 40

    def test_breaks_strided_pathology(self):
        h = MixHash(64, seed=0)
        indexes = {h(base * 64) for base in range(100)}
        assert len(indexes) > 30


class TestMakeFamily:
    def test_one_function_per_way(self):
        fam = make_hash_family("h3", 4, 256)
        assert len(fam) == 4

    def test_ways_are_independent(self):
        fam = make_hash_family("h3", 2, 256, seed=0)
        same = sum(1 for x in range(4096) if fam[0](x) == fam[1](x))
        assert same < 4096 * 0.05

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            make_hash_family("sha1", 2, 64)

    def test_rejects_zero_ways(self):
        with pytest.raises(ValueError):
            make_hash_family("h3", 0, 64)

    def test_bitsel_family_all_equal(self):
        fam = make_hash_family("bitsel", 4, 64)
        assert all(f(123) == fam[0](123) for f in fam)

    def test_reproducible_across_runs(self):
        a = make_hash_family("mix", 3, 128, seed=42)
        b = make_hash_family("mix", 3, 128, seed=42)
        assert all(fa(x) == fb(x) for fa, fb in zip(a, b) for x in range(100))
