"""Cross-design associativity comparison (paper Section IV's purpose).

The framework exists so different cache organisations can be compared
on one axis. This module packages that comparison:

- :func:`compare_designs` runs one trace through many designs and
  returns each design's associativity distribution plus headline stats;
- :func:`dominates` tests first-order stochastic dominance between two
  measured distributions (design A dominates B when A's eviction
  priorities are distributionally higher — strictly better replacement
  decisions under *any* monotone value function);
- :class:`ComparisonReport` renders the ranking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, Tuple

from repro.assoc.distribution import AssociativityDistribution
from repro.assoc.measurement import TrackedPolicy
from repro.core.controller import Cache
from repro.util.statistics import unit_grid


@dataclass
class DesignMeasurement:
    name: str
    nominal_candidates: int
    distribution: AssociativityDistribution
    miss_rate: float

    def row(self) -> str:
        """One formatted report line."""
        d = self.distribution
        return (
            f"{self.name:18s} n={self.nominal_candidates:<4d} "
            f"mean={d.mean():.4f} effn={d.effective_candidates():6.1f} "
            f"KS={d.ks_to_uniformity(self.nominal_candidates):.3f} "
            f"missrate={self.miss_rate:.4f}"
        )


def dominates(
    a: AssociativityDistribution,
    b: AssociativityDistribution,
    tolerance: float = 0.01,
) -> bool:
    """First-order stochastic dominance: F_a(x) <= F_b(x) + tol for all x.

    Lower CDF everywhere = mass shifted towards e = 1.0 = strictly
    better eviction decisions.
    """
    xs = unit_grid(201)
    return all(
        fa <= fb + tolerance for fa, fb in zip(a.cdf(xs), b.cdf(xs))
    )


@dataclass
class ComparisonReport:
    measurements: list

    def ranked(self) -> list:
        """Designs by effective candidate count, best first."""
        return sorted(
            self.measurements,
            key=lambda m: m.distribution.effective_candidates(),
            reverse=True,
        )

    def dominance_matrix(self) -> dict:
        """(A, B) -> True when A stochastically dominates B."""
        out = {}
        for a in self.measurements:
            for b in self.measurements:
                if a is b:
                    continue
                out[(a.name, b.name)] = dominates(
                    a.distribution, b.distribution
                )
        return out

    def rows(self) -> list[str]:
        """Formatted report lines, ranking included."""
        lines = ["Associativity comparison (best effective-n first):"]
        lines += ["  " + m.row() for m in self.ranked()]
        return lines


def compare_designs(
    designs: Sequence[Tuple[str, int, Callable[[], object]]],
    policy_factory: Callable[[], object],
    trace: Iterable[Tuple[int, bool]],
    warmup: int = 0,
) -> ComparisonReport:
    """Measure several designs on one trace.

    Parameters
    ----------
    designs:
        ``(name, nominal_candidates, array_factory)`` triples.
    policy_factory:
        Fresh policy per design (wrapped in a TrackedPolicy).
    trace:
        ``(address, is_write)`` pairs; it is materialised once and
        replayed identically for every design.
    warmup:
        Leading accesses whose evictions are discarded.
    """
    materialised = list(trace)
    measurements = []
    for name, candidates, array_factory in designs:
        tracked = TrackedPolicy(policy_factory())
        cache = Cache(array_factory(), tracked, name=name)
        for i, (address, is_write) in enumerate(materialised):
            if i == warmup:
                tracked.reset()
            cache.access(address, is_write)
        if not tracked.priorities:
            raise ValueError(
                f"design {name!r} produced no evictions; lengthen the trace"
            )
        measurements.append(
            DesignMeasurement(
                name=name,
                nominal_candidates=candidates,
                distribution=tracked.distribution(),
                miss_rate=cache.stats.miss_rate,
            )
        )
    return ComparisonReport(measurements=measurements)
