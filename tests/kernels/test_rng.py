"""MTStream must reproduce CPython's random.Random draw-for-draw."""

import random
from itertools import islice

import pytest

from repro.kernels.replay import fig2_addresses
from repro.kernels.rng import MTStream, RandrangePool
from repro.workloads.patterns import uniform_random


@pytest.mark.parametrize("seed", [0, 1, 12345])
@pytest.mark.parametrize("n", [3, 5, 100, 2048, 16384])
def test_randrange_parity(seed, n):
    ref = random.Random(seed)
    stream = MTStream(random.Random(seed))
    got = stream.randrange(n, 3000)
    assert got.tolist() == [ref.randrange(n) for _ in range(3000)]


@pytest.mark.parametrize("seed", [4, 64])
@pytest.mark.parametrize("footprint", [1, 1000, 16384])
def test_fig2_streams_agree_across_engines(seed, footprint):
    """fig2 feeds both engines the same addresses: ``randrange``'s."""
    ref = random.Random(seed)
    expected = [ref.randrange(footprint) for _ in range(5000)]
    assert list(islice(uniform_random(footprint, seed), 5000)) == expected
    assert fig2_addresses(random.Random(seed), footprint, 5000) == expected


@pytest.mark.parametrize("seed", [0, 7])
def test_uniform_parity(seed):
    ref = random.Random(seed)
    stream = MTStream(random.Random(seed))
    assert stream.uniform(2000).tolist() == [ref.random() for _ in range(2000)]


def test_mixed_draw_shapes_share_one_word_stream():
    """Interleaved randrange/uniform draws must stay in sync.

    The rejection sampler pushes unconsumed raw words back; a later
    uniform() must pick up exactly where the Python object would.
    """
    ref = random.Random(42)
    stream = MTStream(random.Random(42))
    assert stream.randrange(2048, 777).tolist() == [
        ref.randrange(2048) for _ in range(777)
    ]
    assert stream.uniform(123).tolist() == [ref.random() for _ in range(123)]
    assert stream.randrange(77, 1000).tolist() == [
        ref.randrange(77) for _ in range(1000)
    ]


def test_source_object_is_not_advanced():
    source = random.Random(5)
    before = source.getstate()
    MTStream(source).randrange(100, 50)
    assert source.getstate() == before


def test_words_equal_getrandbits():
    ref = random.Random(3)
    stream = MTStream(random.Random(3))
    assert stream.words(1000).tolist() == [
        ref.getrandbits(32) for _ in range(1000)
    ]


def test_randrange_rejects_bad_bounds():
    stream = MTStream(random.Random(0))
    with pytest.raises(ValueError):
        stream.randrange(0, 1)
    with pytest.raises(ValueError):
        stream.randrange(1 << 33, 1)


def test_pool_preserves_order_across_refills():
    ref = random.Random(9)
    pool = RandrangePool(MTStream(random.Random(9)), 512, batch=100)
    got = []
    for count in (1, 7, 64, 300, 5, 999):
        got.extend(pool.take(count).tolist())
    assert got == [ref.randrange(512) for _ in range(len(got))]
