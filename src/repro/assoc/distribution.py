"""Associativity distributions: empirical samples vs. analytic curves."""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import reduce
from operator import add
from typing import Callable, Iterable, Sequence

from repro.util.statistics import empirical_cdf, ks_distance


def uniformity_cdf(num_candidates: int) -> Callable[[float], float]:
    """Analytic associativity CDF under the uniformity assumption.

    ``F_A(x) = x^n`` for x in [0, 1] (paper Section IV-B): the maximum of
    n i.i.d. uniform eviction priorities.
    """
    if num_candidates < 1:
        raise ValueError(f"num_candidates must be >= 1, got {num_candidates}")

    def cdf(x: float) -> float:
        if x <= 0.0:
            return 0.0
        if x >= 1.0:
            return 1.0
        return x**num_candidates

    return cdf


def uniformity_cdf_exact(num_candidates: int, num_blocks: int) -> Callable[[float], float]:
    """Exact CDF of n candidates drawn with repetition from B blocks.

    The victim's rank is the largest of n i.i.d. uniform ranks, so
    P(rank <= r) = ((r+1)/B)^n at priority x = r/(B-1). The top rank
    keeps about n/B of the mass, a step ``x^n`` cannot follow.
    """
    if num_candidates < 1:
        raise ValueError(f"num_candidates must be >= 1, got {num_candidates}")
    if num_blocks < 2:
        raise ValueError(f"num_blocks must be >= 2, got {num_blocks}")

    def cdf(x: float) -> float:
        rank = min(math.floor(x * (num_blocks - 1) + 1e-9), num_blocks - 1)
        return ((rank + 1) / num_blocks) ** num_candidates if rank >= 0 else 0.0

    return cdf


def expected_priority(num_candidates: int) -> float:
    """Mean eviction priority under uniformity: E[max of n U(0,1)] = n/(n+1)."""
    if num_candidates < 1:
        raise ValueError(f"num_candidates must be >= 1, got {num_candidates}")
    return num_candidates / (num_candidates + 1)


def _pairwise_sum(values: Sequence[float]) -> float:
    """numpy's float64 add-reduce, bit for bit, in plain float adds
    (``sum`` compensates on Python 3.12+): a loop under 8 values, eight
    strided accumulators up to 128, else split at n/2 rounded down to 8s."""
    n = len(values)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])
    if n < 8:
        return reduce(add, values, 0.0)
    end = n - n % 8
    r = [reduce(add, values[j:end:8]) for j in range(8)]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    return reduce(add, values[end:], total)


class AssociativityDistribution:
    """Empirical distribution of eviction priorities.

    Built from the samples a :class:`~repro.assoc.measurement.
    TrackedPolicy` records; offers CDF evaluation, quantiles, and
    goodness-of-fit against the uniformity assumption.
    """

    def __init__(self, samples: Iterable[float]) -> None:
        ordered = sorted(map(float, samples))
        if not ordered:
            raise ValueError("no eviction-priority samples")
        # ``not 0 <= e <= 1`` rather than ``e < 0 or e > 1``: NaN fails too
        if not all(0.0 <= e <= 1.0 for e in ordered):
            raise ValueError("eviction priorities must lie in [0, 1]")
        #: the samples in ascending order
        self.samples = ordered

    def __len__(self) -> int:
        return len(self.samples)

    def cdf(self, xs: Sequence[float]) -> list[float]:
        """Empirical CDF evaluated at ``xs``."""
        return empirical_cdf(self.samples, xs)

    def mean(self) -> float:
        """Mean eviction priority (n/(n+1) under uniformity): numpy's
        pairwise sum over n, as fig3's goldens pin."""
        return _pairwise_sum(self.samples) / len(self)

    def quantile(self, q: float) -> float:
        """Inverse CDF: numpy's default linear interpolation, as pinned."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0,1], got {q}")
        ordered, index = self.samples, (len(self) - 1) * q
        below = math.floor(index)
        if below >= len(self) - 1:
            return ordered[-1]
        a, b, gap = ordered[below], ordered[below + 1], index - below
        return b - (b - a) * (1 - gap) if gap >= 0.5 else a + (b - a) * gap

    def fraction_below(self, threshold: float) -> float:
        """P(evicted block priority < threshold) — the paper's headline
        per-curve statistic (e.g. 10^-6 below 0.4 for n=16)."""
        return bisect_left(self.samples, threshold) / len(self)

    def ks_to_uniformity(self, num_candidates: int) -> float:
        """KS distance to the analytic ``x^n`` curve."""
        return ks_distance(self.samples, uniformity_cdf(num_candidates))

    def ks_on_lattice(self, num_candidates: int, num_blocks: int) -> float:
        """KS distance to :func:`uniformity_cdf_exact` on the rank lattice
        r/(B-1), where both CDFs step. Every sample must be a rank among
        B residents (an eviction from a full cache)."""
        if num_blocks < 2:
            raise ValueError(f"num_blocks must be >= 2, got {num_blocks}")
        top = num_blocks - 1
        counts = [0] * num_blocks
        for e in self.samples:
            rank = round(e * top)  # half to even, as numpy's rint
            if abs(rank / top - e) > 1e-12:
                raise ValueError(f"samples are not ranks among {num_blocks} blocks")
            counts[rank] += 1
        distance, seen = 0.0, 0
        for rank, count in enumerate(counts):
            seen += count
            exact = ((rank + 1) / num_blocks) ** num_candidates
            distance = max(distance, abs(seen / len(self) - exact))
        return distance

    def effective_candidates(self) -> float:
        """Invert the mean: the n for which n/(n+1) equals the sample
        mean. A design-agnostic "effective associativity" scalar."""
        m = self.mean()
        if m >= 1.0:
            return float("inf")
        return m / (1.0 - m)

    def summary(self) -> dict[str, float]:
        """Headline numbers for reports."""
        return {
            "samples": float(len(self)),
            "mean": self.mean(),
            "p10": self.quantile(0.10),
            "p50": self.quantile(0.50),
            "frac_below_0.4": self.fraction_below(0.4),
            "effective_candidates": self.effective_candidates(),
        }
