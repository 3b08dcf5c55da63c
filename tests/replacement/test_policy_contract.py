"""The ``ReplacementPolicy`` contract, checked at run time on every policy."""

import pytest

from repro.assoc import TrackedPolicy
from repro.replacement import LRU, OptPolicy, ReplacementPolicy, make_policy

NAMES = ("lru", "bucketed-lru", "lfu", "fifo", "random", "srrip", "nru")
BUILDERS = [lambda name=name: make_policy(name) for name in NAMES] + [
    lambda: OptPolicy.from_trace([0, 1, 2, 3, 4, 5, 2, 0, 4]),
    lambda: TrackedPolicy(LRU()),
]


@pytest.mark.parametrize("build", BUILDERS, ids=[*NAMES, "opt", "tracked-lru"])
def test_select_victim_leaves_candidates_as_given(build):
    # The caller owns the list; a policy that sorts or pops it changes
    # what the caller and any wrapper see after the call.
    policy = build()
    for address in range(6):
        policy.on_insert(address)
    policy.on_access(2)
    candidates = [4, 1, 5, 0, 2]
    assert policy.select_victim(candidates) in candidates
    assert candidates == [4, 1, 5, 0, 2]


def test_a_policy_missing_a_hook_cannot_be_built():
    class NoScore(ReplacementPolicy):
        def on_insert(self, address):
            pass

        def on_access(self, address, is_write=False):
            pass

        def on_evict(self, address):
            pass

    with pytest.raises(TypeError, match="score"):
        NoScore()
