"""Statistical helpers shared by the analysis framework and experiments."""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Iterable, Sequence


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of positive values (paper reports geomean speedups).

    Raises
    ------
    ValueError
        If the input is empty or contains non-positive values.
    """
    vals = list(values)
    if not vals:
        raise ValueError("geometric_mean of empty sequence")
    if any(v <= 0 for v in vals):
        raise ValueError("geometric_mean requires positive values")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def unit_grid(num: int) -> list[float]:
    """``num`` evenly spaced points from 0 to 1, bit for bit
    ``numpy.linspace(0.0, 1.0, num)``: ``i * step``, then exactly 1.0."""
    step = 1.0 / (num - 1)
    return [i * step for i in range(num - 1)] + [1.0]


def empirical_cdf(samples: Sequence[float], xs: Sequence[float]) -> list[float]:
    """Evaluate the empirical CDF of ``samples`` at the points ``xs``.

    Returns ``P(sample <= x)`` for each ``x`` in ``xs``.
    """
    if len(samples) == 0:
        raise ValueError("empirical_cdf of empty sample set")
    ordered = sorted(samples)
    n = len(ordered)
    return [bisect_right(ordered, x) / n for x in xs]


def ks_distance(samples: Sequence[float], cdf) -> float:
    """Kolmogorov-Smirnov distance between samples and an analytic CDF.

    ``cdf`` is a callable mapping x -> P(X <= x). Used to quantify how
    closely a cache design matches the uniformity assumption.
    """
    if len(samples) == 0:
        raise ValueError("ks_distance of empty sample set")
    ordered = sorted(samples)
    n = len(ordered)
    distance = 0.0
    for i, x in enumerate(ordered):
        theo = cdf(x)
        distance = max(distance, abs((i + 1) / n - theo), abs(theo - i / n))
    return distance
