"""Tests for LRU, FIFO and the policy base contract."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assoc import TrackedPolicy
from repro.replacement import FIFO, LRU, make_policy
from repro.replacement.base import ReplacementPolicy


class TestLRU:
    def test_evicts_least_recent(self):
        p = LRU()
        for a in (1, 2, 3):
            p.on_insert(a)
        assert p.select_victim([1, 2, 3]) == 1
        p.on_access(1)
        assert p.select_victim([1, 2, 3]) == 2

    def test_scores_order_by_recency(self):
        p = LRU()
        p.on_insert(10)
        p.on_insert(20)
        assert p.score(10) > p.score(20)  # older -> higher preference

    def test_double_insert_rejected(self):
        p = LRU()
        p.on_insert(1)
        with pytest.raises(ValueError):
            p.on_insert(1)

    def test_access_nonresident_rejected(self):
        with pytest.raises(KeyError):
            LRU().on_access(99)

    def test_evict_nonresident_rejected(self):
        with pytest.raises(KeyError):
            LRU().on_evict(99)

    def test_evict_forgets_state(self):
        p = LRU()
        p.on_insert(5)
        p.on_evict(5)
        p.on_insert(5)  # re-insertable after eviction
        assert p.score(5) is not None

    def test_select_victim_empty_rejected(self):
        with pytest.raises(ValueError):
            LRU().select_victim([])

    def test_writes_count_as_use(self):
        p = LRU()
        p.on_insert(1)
        p.on_insert(2)
        p.on_access(1, is_write=True)
        assert p.select_victim([1, 2]) == 2


class TestFIFO:
    def test_access_does_not_refresh(self):
        p = FIFO()
        p.on_insert(1)
        p.on_insert(2)
        p.on_access(1)
        p.on_access(1)
        assert p.select_victim([1, 2]) == 1  # still first in

    def test_eviction_order_is_insertion_order(self):
        p = FIFO()
        for a in (7, 8, 9):
            p.on_insert(a)
        assert p.select_victim([9, 8, 7]) == 7

    def test_double_insert_rejected(self):
        p = FIFO()
        p.on_insert(3)
        with pytest.raises(ValueError):
            p.on_insert(3)


class TestSelectFastPath:
    """LRU/FIFO pick the victim with ``min`` over their stamps; that must
    be the base class's ``score()`` scan, bare or behind the wrapper the
    associativity measurement puts around a policy."""

    WRAPPERS = [lambda p: p, TrackedPolicy]
    #: the bare case keeps the id it had among four wrappers (the
    #: tier-1 floor list names it)
    WRAPPER_IDS = ["<lambda>0", "TrackedPolicy"]

    @given(
        ops=st.lists(st.tuples(st.sampled_from("iae"), st.integers(0, 40)),
                     max_size=120),
        picks=st.lists(st.integers(0, 1000), min_size=1, max_size=60),
        kind=st.sampled_from([LRU, FIFO]),
        wrapper=st.sampled_from(WRAPPERS),
        zeroed=st.lists(st.integers(0, 1000), max_size=3),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_the_score_scan(self, ops, picks, kind, wrapper, zeroed):
        inner = kind()
        policy = wrapper(inner)
        resident: list[int] = []
        for op, address in ops:
            if op == "i" and address not in resident:
                policy.on_insert(address)
                resident.append(address)
            elif op == "a" and address in resident:
                policy.on_access(address)
            elif op == "e" and address in resident:
                policy.on_evict(address)
                resident.remove(address)
        if not resident:
            return
        # Equal stamps never arise by themselves; a stamp-corrupt fault
        # makes them (it zeroes stamps), and first-wins must still hold.
        for z in zeroed:
            inner._stamp[resident[z % len(resident)]] = 0
        candidates = [resident[p % len(resident)] for p in picks]  # duplicates too
        expected = ReplacementPolicy.select_victim(inner, candidates)
        assert policy.select_victim(candidates) == expected
        assert policy.select_victim(tuple(candidates)) == expected

    @pytest.mark.parametrize("kind", [LRU, FIFO])
    @pytest.mark.parametrize("wrapper", WRAPPERS, ids=WRAPPER_IDS)
    def test_errors_are_unchanged(self, kind, wrapper):
        policy = wrapper(kind())
        policy.on_insert(1)
        with pytest.raises(ValueError, match="no candidates"):
            policy.select_victim([])
        with pytest.raises(KeyError):
            policy.select_victim([1, 99])


class TestFactory:
    def test_known_names(self):
        for name in ("lru", "bucketed-lru", "lfu", "fifo", "random", "srrip"):
            assert make_policy(name) is not None

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_policy("belady")

    def test_kwargs_forwarded(self):
        p = make_policy("bucketed-lru", timestamp_bits=4, bump_every=10)
        assert p.timestamp_bits == 4
        assert p.bump_every == 10
