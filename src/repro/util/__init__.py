"""Small shared substrates: Bloom filter, math helpers."""

from repro.util.bloom import BloomFilter
from repro.util.statistics import geometric_mean, empirical_cdf

__all__ = ["BloomFilter", "geometric_mean", "empirical_cdf"]
