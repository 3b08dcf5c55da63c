"""Vector hash adapters must equal their scalar hashes on every address."""

import random

import numpy as np
import pytest

from repro.hashing.base import make_hash_family
from repro.hashing.bitsel import BitSelectHash
from repro.hashing.h3 import H3Hash
from repro.hashing.mixers import MixHash
from repro.kernels.h3 import (
    VectorBitSelect,
    VectorH3,
    VectorHash,
    vector_hash,
    vector_hashes,
)


def _addresses(seed, count=4000):
    rng = random.Random(seed)
    return np.array(
        [rng.randrange(1 << 40) for _ in range(count)], dtype=np.int64
    )


@pytest.mark.parametrize("seed", [0, 1, 99])
@pytest.mark.parametrize("num_lines", [16, 256, 4096])
def test_vector_h3_matches_scalar(seed, num_lines):
    scalar = H3Hash(num_lines, seed=seed)
    addrs = _addresses(seed)
    got = VectorH3(scalar).indices(addrs)
    assert got.tolist() == [scalar(int(a)) for a in addrs]


@pytest.mark.parametrize("num_lines", [8, 1024])
def test_vector_bitsel_matches_scalar(num_lines):
    scalar = BitSelectHash(num_lines)
    addrs = _addresses(3)
    got = VectorBitSelect(scalar).indices(addrs)
    assert got.tolist() == [scalar(int(a)) for a in addrs]


def test_generic_fallback_matches_scalar():
    scalar = MixHash(128, seed=5)
    addrs = _addresses(7, count=500)
    adapter = vector_hash(scalar)
    assert type(adapter) is VectorHash
    assert adapter.indices(addrs).tolist() == [scalar(int(a)) for a in addrs]


def test_vector_hash_dispatch():
    assert type(vector_hash(H3Hash(64))) is VectorH3
    assert type(vector_hash(BitSelectHash(64))) is VectorBitSelect
    family = make_hash_family("h3", 4, 64, seed=2)
    adapters = vector_hashes(family)
    assert len(adapters) == 4
    assert all(type(a) is VectorH3 for a in adapters)
    assert all(a.scalar is h for a, h in zip(adapters, family))
