"""ZScope: the observability layer (metrics, profiling, spans).

The simulator's results are *distributions* — eviction-priority CDFs,
walk depths, bank tag-load — but before this layer the repo only
surfaced end-of-run aggregates. ZScope adds three facilities:

- **Metrics** (:mod:`repro.obs.metrics`): a dependency-free registry of
  counters/gauges/histograms with hierarchical names
  (``l2.bank3.walk.tag_reads``). Core arrays, the controller, the
  banked L2 and the CMP simulator register into it instead of keeping
  ad-hoc attribute counters.
- **Profiling** (:mod:`repro.obs.profiling`): a single-file heartbeat
  for long sweeps.
- **Span tracing** (:mod:`repro.obs.spans` + :mod:`repro.obs.timeline`,
  ZTrace): hierarchical spans with deterministic seed-derived ids,
  one parent-side span per parallel sweep job, Chrome
  trace-event/Perfetto export, per-name wall-time totals and
  critical-path attribution — the one wall clock. Off by default
  (``NULL_SPANS``); enabled per run by the ``stats`` and ``timeline``
  CLIs or by handing the context an enabled :class:`SpanTracker`.

:class:`ObsContext` bundles them and is what components accept:
everything takes an optional ``obs`` argument and, when given one,
registers its metrics under the context's scope. With no context (the
default) components fall back to private registries — behaviour and
performance are unchanged, which is what keeps observability safe to
wire in everywhere. The eviction priorities behind the Fig. 2 CDF are
not an observability channel: :class:`~repro.assoc.TrackedPolicy`
records them in process. CLI surfaces: ``zcache-repro stats`` and
``zcache-repro timeline`` (see :mod:`repro.obs.cli`).
"""

from __future__ import annotations

from typing import Optional

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    IntHistogram,
    MetricsRegistry,
    RegistryStats,
    sanitize_component,
)
from repro.obs.profiling import (
    NULL_HEARTBEAT,
    PROGRESS_LOG_ENV,
    Heartbeat,
)
from repro.obs.spans import NULL_SPANS, Span, SpanTracker

__all__ = [
    "ObsContext",
    "MetricsRegistry",
    "RegistryStats",
    "Counter",
    "Gauge",
    "Histogram",
    "IntHistogram",
    "sanitize_component",
    "Heartbeat",
    "NULL_HEARTBEAT",
    "PROGRESS_LOG_ENV",
    "Span",
    "SpanTracker",
    "NULL_SPANS",
]


class ObsContext:
    """The bundle instrumented components accept: metrics + spans.

    A context carries a :class:`MetricsRegistry` view, a
    :class:`Heartbeat` and a :class:`SpanTracker`. :meth:`scoped`
    derives a child context whose registry is prefixed
    (``obs.scoped("l2").scoped("bank3")``) while the heartbeat and
    spans stay shared — scoping is a naming concern.

    Spans default to the disabled :data:`NULL_SPANS` tracker: unlike
    metrics, span tracing reads the host clock per span, so it is
    opt-in per run (the ``stats`` and ``timeline`` CLIs, or any caller
    passing an enabled tracker).
    """

    __slots__ = ("metrics", "heartbeat", "spans")

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        heartbeat: Optional[Heartbeat] = None,
        spans: Optional[SpanTracker] = None,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.heartbeat = heartbeat if heartbeat is not None else NULL_HEARTBEAT
        self.spans = spans if spans is not None else NULL_SPANS

    def scoped(self, prefix: str) -> "ObsContext":
        """A child context under ``prefix`` (shared heartbeat/spans)."""
        return ObsContext(
            metrics=self.metrics.scoped(prefix),
            heartbeat=self.heartbeat,
            spans=self.spans,
        )

    def close(self) -> None:
        """Close any spans still open."""
        if self.spans is not NULL_SPANS:
            self.spans.close()

    def __enter__(self) -> "ObsContext":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
