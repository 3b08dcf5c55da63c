"""The registry's miss and eviction counters agree with the in-process
per-access record.

Fig. 2-shaped caches (random candidates, ``TrackedPolicy`` over LRU,
an 8x footprint of uniform random addresses) run under one
:class:`~repro.obs.ObsContext`, each in its own ``n<N>`` scope. Every
``AccessResult`` with ``hit`` False is one miss, and every eviction is
one priority appended to the tracked policy's record, so the counters
must match both exactly.
"""

from itertools import islice

from repro.assoc import TrackedPolicy
from repro.core import Cache, RandomCandidatesArray
from repro.experiments.fig2 import CANDIDATE_COUNTS
from repro.obs import ObsContext
from repro.replacement import LRU
from repro.workloads.patterns import uniform_random

BLOCKS = 128
ACCESSES = 1_500
SEED = 3


def test_metrics_agree_with_tracked_record():
    obs = ObsContext()
    for n in CANDIDATE_COUNTS:
        tracked = TrackedPolicy(LRU())
        cache = Cache(
            RandomCandidatesArray(BLOCKS, n, seed=SEED + n),
            tracked,
            name=f"n{n}",
            obs=obs.scoped(f"n{n}"),
        )
        stream = islice(uniform_random(BLOCKS * 8, SEED + n), ACCESSES)
        misses = sum(not cache.access(address).hit for address in stream)
        scope = obs.metrics.scoped(f"n{n}")
        assert misses > BLOCKS, f"n={n} never filled the cache"
        assert scope.sum_counters("misses") == misses
        assert scope.sum_counters("evictions") == len(tracked.priorities)
        assert len(tracked.priorities) == misses - BLOCKS
