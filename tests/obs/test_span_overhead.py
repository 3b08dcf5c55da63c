"""Enabling ZTrace spans must not slow the simulator down.

The same Fig. 2 run under an ``ObsContext`` with spans *enabled* must
stay within ``MAX_REGRESSION`` of the identical run with the disabled
``NULL_SPANS`` tracker. Both sides are measured interleaved in this
process, so the ratio is its own reference and no baseline file is
needed. (The cost of running with *no* context at all is ZBench's to
bound: ``wall_s`` on ``sweep_*`` and ``assoc_cdf`` are obs=None paths.)
"""

import time

from repro.experiments.fig2 import run as fig2_run
from repro.obs import ObsContext, SpanTracker

#: spans-on / spans-off ceiling (slack for timer noise on shared runners)
MAX_REGRESSION = 1.15
#: the guarded Fig. 2 run
CACHE_BLOCKS = 512
ACCESSES = 8000
SEED = 0
ROUNDS = 5


def fig2_obs_seconds(spans_on: bool) -> float:
    """Seconds for the Fig. 2 run under an ObsContext (spans on or off).

    Both sides carry the full metrics/trace context so the ratio
    isolates exactly what span tracing adds on top.
    """
    obs = ObsContext(spans=SpanTracker(seed=SEED) if spans_on else None)
    t0 = time.perf_counter()
    fig2_run(cache_blocks=CACHE_BLOCKS, accesses=ACCESSES, seed=SEED, obs=obs)
    elapsed = time.perf_counter() - t0
    obs.close()
    return elapsed


def test_spans_cost_at_most_fifteen_percent_of_fig2():
    fig2_obs_seconds(spans_on=True)  # warm imports and caches
    # Interleaved rounds, min of each series: a slow spell on a shared
    # runner hits both sides alike instead of skewing the ratio.
    offs, ons = [], []
    for _ in range(ROUNDS):
        offs.append(fig2_obs_seconds(spans_on=False))
        ons.append(fig2_obs_seconds(spans_on=True))
    off, on = min(offs), min(ons)
    ratio = on / off
    assert ratio <= MAX_REGRESSION, (
        f"spans off: {off:.3f}s  spans on: {on:.3f}s  "
        f"on/off ratio {ratio:.2f}x > {MAX_REGRESSION:.2f}x"
    )
