"""Fig. 2: associativity CDFs under the uniformity assumption.

``F_A(x) = x^n`` for n in {4, 8, 16, 64}, evaluated on a grid, in both
linear and semi-log form — plus the experimental validation of Section
IV-B: a random-candidates cache simulated for each n must land on the
analytic curve.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice
from typing import Optional

from repro.assoc import TrackedPolicy
from repro.core import Cache, RandomCandidatesArray
from repro.obs import NULL_SPANS, ObsContext
from repro.replacement import LRU
from repro.util.statistics import unit_grid
from repro.workloads.patterns import uniform_random

CANDIDATE_COUNTS = (4, 8, 16, 64)


@dataclass
class Fig2Result:
    #: the 101-point grid 0.00, 0.01, ..., 1.00
    xs: list
    #: n -> analytic CDF values on xs
    analytic: dict
    #: n -> (empirical CDF values on xs, KS distance to analytic)
    simulated: dict


def run(
    cache_blocks: int = 2048,
    accesses: int = 60_000,
    footprint_mult: int = 8,
    seed: int = 0,
    obs: Optional[ObsContext] = None,
    engine: str = "reference",
) -> Fig2Result:
    """Generate Fig. 2's curves and validate them by simulation.

    ``obs`` threads an observability context through: each n's cache registers metrics
    under an ``n<N>`` scope (``n4.misses``, ``n8.evictions``, ...).
    The eviction CDFs come from each cache's
    :class:`~repro.assoc.measurement.TrackedPolicy`. ``engine="turbo"``
    runs each cache on the ZTurbo vectorized core and pre-draws the
    whole access stream in bulk; results are bit-identical to the
    reference engine.
    """
    xs = unit_grid(101)
    analytic = {}
    simulated = {}
    spans = obs.spans if obs is not None else NULL_SPANS
    with spans.span("fig2", accesses=accesses, engine=engine):
        for n in CANDIDATE_COUNTS:
            # The whole per-n iteration sits under one span — the turbo
            # path pre-draws its access stream in bulk, and that setup
            # cost belongs to the n it serves.
            with spans.span(f"fig2.n{n}", candidates=n):
                analytic[n] = [x**n for x in xs]
                tracked = TrackedPolicy(LRU())
                cache = Cache(
                    RandomCandidatesArray(cache_blocks, n, seed=seed + n),
                    tracked,
                    name=f"n{n}",
                    obs=obs.scoped(f"n{n}") if obs is not None else None,
                    engine=engine,
                )
                # Both branches are Random(seed + n).randrange(footprint),
                # draw for draw (tests/kernels/test_rng.py).
                footprint = cache_blocks * footprint_mult
                if cache.engine == "turbo":
                    from repro.kernels.replay import fig2_addresses

                    stream = fig2_addresses(
                        random.Random(seed + n), footprint, accesses
                    )
                else:
                    stream = islice(uniform_random(footprint, seed + n), accesses)
                # Turbo path: roll one child span per access batch via
                # the TurboCore hook (no-op on the reference engine or
                # with spans disabled).
                with spans.turbo_batches(
                    getattr(cache, "_turbo", None),
                    f"fig2.n{n}",
                    every=max(1, accesses // 8),
                ):
                    for address in stream:
                        cache.access(address)
                dist = tracked.distribution()
                simulated[n] = (dist.cdf(xs), dist.ks_to_uniformity(n))
    return Fig2Result(xs=xs, analytic=analytic, simulated=simulated)


def render(result: Fig2Result) -> list[str]:
    """The CDF table (every ~12th grid point) plus the KS distances."""
    out = ["Fig.2: associativity CDFs F_A(x) = x^n (analytic vs simulated)"]
    header = "x      " + "".join(
        f"  n={n}:ana/sim " for n in sorted(result.analytic)
    )
    out.append(header)
    for i, x in enumerate(result.xs):
        if i % max(1, len(result.xs) // 12):
            continue
        cells = []
        for n in sorted(result.analytic):
            cells.append(
                f"  {result.analytic[n][i]:.4f}/{result.simulated[n][0][i]:.4f}"
            )
        out.append(f"{x:5.2f} " + "".join(cells))
    for n in sorted(result.simulated):
        out.append(f"KS(n={n}) = {result.simulated[n][1]:.4f}")
    return out


def svg(out_dir, result: Fig2Result) -> list:
    """Render the linear and semi-log panels; returns the paths."""
    from repro.viz import fig2_svg

    return fig2_svg(out_dir, result)
