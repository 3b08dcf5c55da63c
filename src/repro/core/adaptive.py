"""Adaptive associativity (paper Section VIII, future work).

"Since the zcache makes it trivial to increase or reduce associativity
with the same hardware design, it would be interesting to explore
adaptive replacement schemes that use the high associativity only when
it improves performance, saving cache bandwidth and energy when high
associativity is not needed."

This controller implements that idea. The utility signal is the
*premature-eviction rate*: the fraction of misses whose block was
evicted recently (it sits in a small FIFO of recent victim addresses —
a shadow victim buffer holding tags only). A high rate means the cache
keeps throwing away blocks it still needs, i.e. better eviction
decisions could help, so the walk grows; a near-zero rate (streaming or
comfortably-fitting workloads) means associativity is not the problem
and the walk shrinks to the skew-associative configuration, saving tag
bandwidth and replacement energy.

The knob is the array's ``candidate_limit`` — exactly the early-stop
mechanism of Section III, driven by measured utility instead of
bandwidth pressure.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.core.base import Replacement
from repro.core.controller import AccessResult, Cache
from repro.core.zcache import ZCacheArray
from repro.obs import ObsContext
from repro.obs.metrics import MetricsRegistry, RegistryStats
from repro.replacement.base import ReplacementPolicy


class AdaptiveStats(RegistryStats):
    """Epoch history for analysis and the ablation bench."""

    _COUNTER_FIELDS = ("epochs", "premature_misses", "misses_observed")

    #: (epoch index, candidate limit after adjustment, premature fraction)
    history: list

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        super().__init__(registry)
        self.history = []


class AdaptiveZCache(Cache):
    """A zcache whose walk depth follows measured utility.

    Parameters
    ----------
    array:
        The zcache. Its ``candidate_limit`` is owned by this controller.
    policy:
        Replacement policy.
    epoch_misses:
        Misses per adaptation epoch.
    shadow_entries:
        Size of the recent-victims tag FIFO (defaults to 4x the walk's
        maximum candidate count).
    grow_threshold / shrink_threshold:
        Premature-miss fractions above/below which the candidate limit
        grows or shrinks (geometrically, by 2x).
    min_candidates:
        Floor (defaults to W, the skew-associative configuration).
    """

    def __init__(
        self,
        array: ZCacheArray,
        policy: ReplacementPolicy,
        epoch_misses: int = 512,
        shadow_entries: int | None = None,
        grow_threshold: float = 0.05,
        shrink_threshold: float = 0.01,
        min_candidates: int | None = None,
        name: str = "adaptive-z",
        obs: Optional[ObsContext] = None,
    ) -> None:
        if not isinstance(array, ZCacheArray):
            raise TypeError("AdaptiveZCache requires a ZCacheArray")
        if epoch_misses < 1:
            raise ValueError("epoch_misses must be >= 1")
        if not 0.0 <= shrink_threshold <= grow_threshold <= 1.0:
            raise ValueError("need 0 <= shrink_threshold <= grow_threshold <= 1")
        super().__init__(array, policy, name=name, obs=obs)
        self.epoch_misses = epoch_misses
        self.grow_threshold = grow_threshold
        self.shrink_threshold = shrink_threshold
        self.max_candidates = array.nominal_candidates()
        self.min_candidates = (
            array.num_ways if min_candidates is None else min_candidates
        )
        if not array.num_ways <= self.min_candidates <= self.max_candidates:
            raise ValueError("min_candidates out of range")
        self.shadow_entries = (
            4 * self.max_candidates if shadow_entries is None else shadow_entries
        )
        if self.shadow_entries < 1:
            raise ValueError("shadow_entries must be >= 1")
        # Start at full depth; the first epochs will shrink if unneeded.
        self._limit = self.max_candidates
        array.candidate_limit = self._limit
        self._shadow: OrderedDict[int, None] = OrderedDict()
        self.adaptive_stats = AdaptiveStats(
            self.stats.registry.scoped("adaptive")
        )
        self._ac = self.adaptive_stats.counters()
        self._epoch_premature = 0
        self._epoch_misses = 0

    @property
    def current_limit(self) -> int:
        return self._limit

    def _fill(
        self, address: int, is_write: bool, repl: Optional[Replacement] = None
    ) -> AccessResult:
        self._epoch_misses += 1
        self._ac["misses_observed"].value += 1
        if address in self._shadow:
            # The block was evicted recently: a premature eviction.
            del self._shadow[address]
            self._epoch_premature += 1
            self._ac["premature_misses"].value += 1
        result = super()._fill(address, is_write, repl)
        if result.evicted is not None:
            self._shadow[result.evicted] = None
            if len(self._shadow) > self.shadow_entries:
                self._shadow.popitem(last=False)
        if self._epoch_misses >= self.epoch_misses:
            self._adapt()
        return result

    def _adapt(self) -> None:
        fraction = self._epoch_premature / self._epoch_misses
        if fraction >= self.grow_threshold:
            self._limit = min(self.max_candidates, self._limit * 2)
        elif fraction <= self.shrink_threshold:
            self._limit = max(self.min_candidates, self._limit // 2)
        self.array.candidate_limit = self._limit
        self._ac["epochs"].value += 1
        self.adaptive_stats.history.append(
            (self.adaptive_stats.epochs, self._limit, fraction)
        )
        self._epoch_premature = 0
        self._epoch_misses = 0
