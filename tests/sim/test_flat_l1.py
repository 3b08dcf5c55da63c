"""The front end's flat L1 against the cache it replaced.

``_FrontEnd`` keeps each L1 as per-set ``address -> dirty`` dicts and
works on them inline; ``Cache(SetAssociativeArray(4, 8), LRU())`` — what
every L1 was before — stays here as the test-only reference. The front
end is driven one access at a time (a one-access scripted workload and
an instruction budget of 1), so every step's hit, evicted block,
writeback and dirty-on-invalidate can be compared.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import LRU, Cache, SetAssociativeArray
from repro.obs import ObsContext
from repro.sim import CMPConfig, CMPSimulator
from repro.sim.cmp import MISS, WRITEBACK, _FrontEnd
from repro.workloads import get_workload

WAYS, SETS = 4, 8
CFG = CMPConfig(num_cores=1, l1_blocks=WAYS * SETS, l1_ways=WAYS)


class OneAccess:
    """A workload whose core stream is one scripted access."""

    def __init__(self, address: int, is_write: bool) -> None:
        self.block = ([0], [address], [is_write])

    def core_blocks(self, core_id, l2_blocks, seed=0, num_cores=1):
        return iter([self.block])


def flat_access(front: _FrontEnd, address: int, is_write: bool):
    """One access through the front end: (hit, evicted, writeback)."""
    before = set().union(*front.l1[0])
    front.events.clear()
    front.run(OneAccess(address, is_write), 1, seed=0)
    gone = before - set().union(*front.l1[0])
    assert len(gone) <= 1
    kinds = [ev[0] for ev in front.events]
    writebacks = [ev[2] for ev in front.events if ev[0] == WRITEBACK]
    assert writebacks in ([], sorted(gone))
    return MISS not in kinds, gone.pop() if gone else None, bool(writebacks)


def flat_invalidate(front: _FrontEnd, address: int) -> bool:
    front.events.clear()
    front.l1_invalidate(0, address)
    assert all(address not in lines for lines in front.l1[0])
    return front.events == [(WRITEBACK, 0, address, True, 0)]


#: a 64-block space, weighted towards six blocks each of sets 0 and 1
#: so that full sets, re-touched LRU blocks and refills are common
ADDRESSES = st.one_of(
    st.sampled_from([SETS * i + s for i in range(6) for s in (0, 1)]),
    st.integers(0, 63),
)
OPS = st.lists(
    st.tuples(st.sampled_from("rrwwi"), ADDRESSES), min_size=8, max_size=200
)


@settings(max_examples=150, deadline=None)
@given(OPS)
def test_flat_l1_matches_cache_reference(ops):
    front = _FrontEnd(CFG)
    ref = Cache(SetAssociativeArray(WAYS, SETS), LRU())
    for op, address in ops:
        if op == "i":
            assert flat_invalidate(front, address) == ref.invalidate(address)
        else:
            result = ref.access(address, op == "w")
            assert flat_access(front, address, op == "w") == (
                result.hit, result.evicted, result.writeback,
            )
        resident = {a: d for lines in front.l1[0] for a, d in lines.items()}
        assert resident == {a: ref.is_dirty(a) for a in ref.resident()}
    assert sum(front.l1_accesses) == ref.stats.accesses
    assert sum(front.l1_misses) == ref.stats.misses


def test_refill_after_invalidate_uses_the_free_slot():
    front = _FrontEnd(CFG)
    same_set = [SETS * i for i in range(6)]
    for address in same_set[:4]:
        assert flat_access(front, address, False) == (False, None, False)
    flat_invalidate(front, same_set[1])
    # three resident, one free slot: the refill evicts nothing ...
    assert flat_access(front, same_set[4], True) == (False, None, False)
    # ... and the next one takes the LRU block, not the invalidated way
    assert flat_access(front, same_set[5], False) == (False, same_set[0], False)
    assert list(front.l1[0][0]) == [same_set[2], same_set[3], same_set[4], same_set[5]]


def test_obs_publishes_per_core_l1_accesses_and_misses_only():
    obs = ObsContext()
    cfg = CMPConfig(num_cores=4, l2_blocks=512)
    result = CMPSimulator(
        cfg, get_workload("canneal"), instructions_per_core=400, seed=1, obs=obs
    ).run()
    l1_names = [n for n in obs.metrics.names() if ".l1." in n]
    assert sorted(l1_names) == sorted(
        f"core{c}.l1.{field}" for c in range(4) for field in ("accesses", "misses")
    )
    assert obs.metrics.sum_counters("l1.accesses") == result.l1_accesses
    assert obs.metrics.sum_counters("l1.misses") == result.l1_misses
    assert obs.metrics.get("directory.upgrades").value == result.upgrades
