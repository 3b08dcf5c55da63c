"""The paper's analytical framework for associativity (Section IV).

Associativity is defined as the probability distribution of the
*eviction priorities* of evicted blocks: the victim's rank in the
replacement policy's global ordering, normalised to [0, 1]. Under the
uniformity assumption — candidates' priorities i.i.d. uniform — the
distribution's CDF is ``F_A(x) = x^n`` with ``n`` the number of
replacement candidates.

- :class:`~repro.assoc.measurement.TrackedPolicy` instruments any policy
  to record eviction priorities while a cache runs.
- :class:`~repro.assoc.distribution.AssociativityDistribution` holds the
  samples and compares them to the analytic curves.
- :func:`~repro.assoc.distribution.uniformity_cdf` is the analytic CDF,
  ``uniformity_cdf_exact`` its form for n draws from B blocks.
- :func:`~repro.assoc.measurement.measure_associativity` runs a trace
  through a cache and returns the measured distribution.
"""

from repro.assoc.compare import (
    ComparisonReport,
    DesignMeasurement,
    compare_designs,
    dominates,
)
from repro.assoc.conflict import MissDecomposition, classify_misses
from repro.assoc.prediction import (
    DesignPrediction,
    effective_lru_capacity,
    predict_designs,
    predict_miss_rate,
)
from repro.assoc.distribution import (
    AssociativityDistribution,
    expected_priority,
    uniformity_cdf,
    uniformity_cdf_exact,
)
from repro.assoc.measurement import TrackedPolicy, measure_associativity

__all__ = [
    "AssociativityDistribution",
    "uniformity_cdf",
    "uniformity_cdf_exact",
    "expected_priority",
    "TrackedPolicy",
    "measure_associativity",
    "MissDecomposition",
    "classify_misses",
    "ComparisonReport",
    "DesignMeasurement",
    "compare_designs",
    "dominates",
    "DesignPrediction",
    "effective_lru_capacity",
    "predict_miss_rate",
    "predict_designs",
]
