"""Tests for the access-pattern primitives."""

import itertools
import random
import tracemalloc
from array import array

import pytest

from repro.workloads import patterns
from repro.workloads import (
    mixed,
    pointer_chase,
    sequential_scan,
    strided,
    uniform_random,
    working_set_phases,
    zipf,
)
from repro.workloads.patterns import BLOCK


def take(it, n):
    return list(itertools.islice(it, n))


class TestSequential:
    def test_wraps(self):
        assert take(sequential_scan(4), 6) == [0, 1, 2, 3, 0, 1]

    def test_start_offset(self):
        assert take(sequential_scan(4, start=6), 3) == [2, 3, 0]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            next(sequential_scan(0))


class TestStrided:
    def test_stride_pattern(self):
        assert take(strided(10, 3), 5) == [0, 3, 6, 9, 2]

    def test_rejects_bad_stride(self):
        with pytest.raises(ValueError):
            next(strided(10, 0))

    def test_in_range(self):
        assert all(0 <= a < 100 for a in take(strided(100, 7), 500))


class TestUniform:
    def test_deterministic_per_seed(self):
        assert take(uniform_random(50, seed=1), 20) == take(
            uniform_random(50, seed=1), 20
        )

    def test_covers_footprint(self):
        seen = set(take(uniform_random(16, seed=2), 1000))
        assert seen == set(range(16))


class TestZipf:
    def test_skewed_popularity(self):
        sample = take(zipf(1000, skew=1.3, seed=3), 20_000)
        counts = {}
        for a in sample:
            counts[a] = counts.get(a, 0) + 1
        top = sorted(counts.values(), reverse=True)
        # The hottest block should take a visible share of traffic.
        assert top[0] > len(sample) * 0.05
        assert all(0 <= a < 1000 for a in sample)

    def test_low_skew_flatter(self):
        hot_share = {}
        for skew in (0.6, 1.5):
            sample = take(zipf(500, skew=skew, seed=4), 10_000)
            counts = {}
            for a in sample:
                counts[a] = counts.get(a, 0) + 1
            hot_share[skew] = max(counts.values()) / len(sample)
        assert hot_share[0.6] < hot_share[1.5]

    def test_rejects_skew_one(self):
        with pytest.raises(ValueError):
            next(zipf(100, skew=1.0))


class TestWorkingSet:
    def test_phase_locality(self):
        it = working_set_phases(
            10_000, ws_fraction=0.01, phase_length=500, locality=1.0, seed=5
        )
        phase = take(it, 500)
        assert max(phase) - min(phase) <= 10_000  # wrapped window
        distinct = len(set(phase))
        assert distinct <= 100  # confined to the ~100-block window

    def test_phases_move(self):
        it = working_set_phases(
            100_000, ws_fraction=0.001, phase_length=100, locality=1.0, seed=6
        )
        p1 = set(take(it, 100))
        p2 = set(take(it, 100))
        assert len(p1 & p2) < 50

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            next(working_set_phases(100, ws_fraction=0.0))


class TestPointerChase:
    def test_visits_whole_cycle(self):
        # The successor table is a random permutation, so it has about
        # ln(n) cycles and a chase covers only its start node's cycle;
        # it must still stay in range and be deterministic per seed.
        a = take(pointer_chase(64, seed=7), 200)
        b = take(pointer_chase(64, seed=7), 200)
        assert a == b
        assert all(0 <= x < 64 for x in a)

    def test_data_dependent_sequence(self):
        # Each address determines the next: the pairs (a_i, a_{i+1})
        # must be a function.
        seq = take(pointer_chase(128, seed=8), 2000)
        mapping = {}
        for cur, nxt in zip(seq, seq[1:]):
            assert mapping.setdefault(cur, nxt) == nxt

    def test_jump_every_breaks_function(self):
        seq = take(pointer_chase(128, seed=9, jump_every=10), 2000)
        mapping = {}
        violations = 0
        for cur, nxt in zip(seq, seq[1:]):
            if mapping.setdefault(cur, nxt) != nxt:
                violations += 1
        assert violations > 0


@pytest.mark.parametrize("size", [1, 2, 3, 7, 8, 9, 1 << 14, (1 << 14) + 1, 24_576])
def test_shuffle_is_random_shuffle_whatever_the_table(size):
    """``_shuffle`` permutes a list and a 4-byte array alike, as
    ``Random.shuffle`` does, and leaves the ``Random`` where it leaves it."""
    tables = [list(range(size)), array("I", range(size)), list(range(size))]
    rngs = [random.Random(size), random.Random(size), random.Random(size)]
    patterns._shuffle(tables[0], rngs[0].getrandbits)
    patterns._shuffle(tables[1], rngs[1].getrandbits)
    rngs[2].shuffle(tables[2])
    assert tables[0] == list(tables[1]) == tables[2]
    assert len({r.getrandbits(32) for r in rngs}) == 1


@pytest.mark.parametrize("pattern, table", [(pointer_chase, "nxt"), (zipf, "perm")])
def test_stored_table_is_four_byte_array(pattern, table):
    stream = pattern(1000, seed=3)
    assert stream.take.__self__.gi_frame.f_locals[table].typecode == "I"


@pytest.mark.parametrize("pattern", [pointer_chase, zipf])
def test_permutation_costs_four_bytes_per_block(pattern):
    # The permutation is a 4-byte array; a list of ints costs > 36 B/block.
    blocks = 1 << 16
    tracemalloc.start()
    try:
        next(pattern(blocks, seed=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5 * blocks


class TestMixed:
    def test_respects_weights(self):
        it = mixed(
            [(0.9, sequential_scan(10)), (0.1, uniform_random(10_000, seed=1))],
            seed=10,
        )
        sample = take(it, 5000)
        small = sum(1 for a in sample if a < 10)
        assert 0.85 < small / len(sample) < 0.95

    def test_rejects_empty_and_bad_weights(self):
        with pytest.raises(ValueError):
            next(mixed([]))
        with pytest.raises(ValueError):
            next(mixed([(0.0, sequential_scan(4))]))


class TestMixedFallThrough:
    """A draw above ``cum[-1]`` yields nothing and costs one more draw.

    Seven equal weights leave ``cum[-1] = 1 - 2**-52``, so the largest
    ``random()``, ``1 - 2**-53``, matches no part. A real stream meets
    that once in about 2**53 draws, so no stream digest reaches it; a
    scripted ``Random`` puts it first, back to back, and on both sides
    of a block edge. The parts are sequential scans starting at
    ``100 * i``, so each address names its part.
    """

    PARTS = 7
    HIGH = 1.0 - 2.0**-53
    OVER = {0, 1, 2, 9, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 5}

    def script(self) -> list[float]:
        source = random.Random(11)
        return [
            self.HIGH if i in self.OVER else source.random()
            for i in range(4 * BLOCK)
        ]

    def per_access(self, script):
        """The per-access form: (address, draws so far) per access."""
        cum, acc = [], 0.0
        for _ in range(self.PARTS):
            acc += 1 / self.PARTS
            cum.append(acc)
        assert cum[-1] < self.HIGH
        position = [100 * i for i in range(self.PARTS)]
        for used, u in enumerate(script, start=1):
            for i, c in enumerate(cum):
                if u <= c:
                    yield position[i], used
                    position[i] += 1
                    break

    def scripted_mix(self, monkeypatch, script, used):
        class Scripted:
            def __init__(self, seed):
                self.draws = iter(script)

            def random(self):
                used.append(1)
                return next(self.draws)

        monkeypatch.setattr(patterns.random, "Random", Scripted)
        return mixed(
            [(1.0, sequential_scan(1000, start=100 * i)) for i in range(self.PARTS)]
        )

    def test_iterator_form(self, monkeypatch):
        script = self.script()
        n = 2 * BLOCK + 50
        expected = [a for a, _ in itertools.islice(self.per_access(script), n)]
        got = take(self.scripted_mix(monkeypatch, script, []), n)
        assert got == expected

    def test_take_form_draws_exactly_what_it_uses(self, monkeypatch):
        script = self.script()
        used: list[int] = []
        mix = self.scripted_mix(monkeypatch, script, used)
        reference = self.per_access(script)
        for k in (3, 0, BLOCK - 4, 2, BLOCK + 3):
            expected = list(itertools.islice(reference, k))
            assert mix.take(k) == [a for a, _ in expected]
            if expected:
                assert len(used) == expected[-1][1]
        assert len(used) > 2 * BLOCK + 5  # every scripted fall-through was read

