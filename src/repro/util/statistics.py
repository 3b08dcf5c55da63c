"""Statistical helpers shared by the analysis framework and experiments."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    import numpy as np


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


def empirical_cdf(samples: Sequence[float], xs: Sequence[float]) -> np.ndarray:
    """Evaluate the empirical CDF of ``samples`` at the points ``xs``.

    Returns ``P(sample <= x)`` for each ``x`` in ``xs``.
    """
    import numpy as np

    if len(samples) == 0:
        raise ValueError("empirical_cdf of empty sample set")
    sorted_samples = np.sort(np.asarray(samples, dtype=float))
    xs_arr = np.asarray(xs, dtype=float)
    counts = np.searchsorted(sorted_samples, xs_arr, side="right")
    return counts / len(sorted_samples)


def ks_distance(samples: Sequence[float], cdf) -> float:
    """Kolmogorov-Smirnov distance between samples and an analytic CDF.

    ``cdf`` is a callable mapping x -> P(X <= x). Used to quantify how
    closely a cache design matches the uniformity assumption.
    """
    import numpy as np

    sorted_samples = np.sort(np.asarray(samples, dtype=float))
    n = len(sorted_samples)
    if n == 0:
        raise ValueError("ks_distance of empty sample set")
    theo = np.asarray([cdf(x) for x in sorted_samples])
    ecdf_hi = np.arange(1, n + 1) / n
    ecdf_lo = np.arange(0, n) / n
    return float(max(np.max(np.abs(ecdf_hi - theo)), np.max(np.abs(theo - ecdf_lo))))
