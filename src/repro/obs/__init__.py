"""ZScope: the observability layer (metrics, tracing, profiling).

The simulator's results are *distributions* — eviction-priority CDFs,
walk depths, bank tag-load — but before this layer the repo only
surfaced end-of-run aggregates. ZScope adds three always-available,
low-overhead facilities:

- **Metrics** (:mod:`repro.obs.metrics`): a dependency-free registry of
  counters/gauges/histograms with hierarchical names
  (``l2.bank3.walk.tag_reads``). Core arrays, the controller, the
  banked L2 and the CMP simulator register into it instead of keeping
  ad-hoc attribute counters.
- **Event tracing** (:mod:`repro.obs.events`): typed access / miss /
  walk / relocation / eviction records to pluggable sinks (null, ring
  buffer, JSONL file), so figures like the Fig. 2 CDF can be rebuilt
  offline from a trace.
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
registers its metrics under the context's scope and emits trace events
through its bus. With no context (the default) components fall back to
private registries and a disabled bus — behaviour and performance are
unchanged, which is what keeps observability safe to wire in
everywhere. CLI surfaces: ``zcache-repro stats`` and ``zcache-repro
trace`` (see :mod:`repro.obs.cli`).
"""

from __future__ import annotations

from typing import Optional

from repro.obs.events import (
    AccessEvent,
    EvictionEvent,
    JsonlSink,
    MissEvent,
    NullSink,
    RelocationEvent,
    RingBufferSink,
    TraceBus,
    TraceEvent,
    TraceSink,
    WalkEvent,
    collect_eviction_priorities,
    count_by_kind,
    event_from_dict,
    event_to_dict,
    read_jsonl,
)
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
    "TraceBus",
    "TraceSink",
    "TraceEvent",
    "NullSink",
    "RingBufferSink",
    "JsonlSink",
    "AccessEvent",
    "MissEvent",
    "WalkEvent",
    "RelocationEvent",
    "EvictionEvent",
    "read_jsonl",
    "event_to_dict",
    "event_from_dict",
    "collect_eviction_priorities",
    "count_by_kind",
    "Heartbeat",
    "NULL_HEARTBEAT",
    "PROGRESS_LOG_ENV",
    "Span",
    "SpanTracker",
    "NULL_SPANS",
]


class ObsContext:
    """The bundle instrumented components accept: metrics + trace + spans.

    A context carries a :class:`MetricsRegistry` view, a
    :class:`TraceBus`, a :class:`Heartbeat` and a :class:`SpanTracker`.
    :meth:`scoped` derives a child context whose registry is prefixed
    (``obs.scoped("l2").scoped("bank3")``) while the trace bus,
    heartbeat and spans stay shared — scoping is a naming concern,
    event ordering is global.

    Spans default to the disabled :data:`NULL_SPANS` tracker: unlike
    metrics and trace, span tracing reads the host clock per span, so
    it is opt-in per run (the ``stats`` and ``timeline`` CLIs, or any
    caller passing an enabled tracker).
    """

    __slots__ = ("metrics", "trace", "heartbeat", "spans")

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        trace: Optional[TraceBus] = None,
        heartbeat: Optional[Heartbeat] = None,
        spans: Optional[SpanTracker] = None,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.trace = trace if trace is not None else TraceBus()
        self.heartbeat = heartbeat if heartbeat is not None else NULL_HEARTBEAT
        self.spans = spans if spans is not None else NULL_SPANS

    @property
    def label(self) -> str:
        """The metrics scope prefix — used to label trace events."""
        return self.metrics.prefix

    def scoped(self, prefix: str) -> "ObsContext":
        """A child context under ``prefix`` (shared bus/heartbeat/spans)."""
        return ObsContext(
            metrics=self.metrics.scoped(prefix),
            trace=self.trace,
            heartbeat=self.heartbeat,
            spans=self.spans,
        )

    def close(self) -> None:
        """Close the trace sink (flushes JSONL files) and open spans."""
        self.trace.close()
        if self.spans is not NULL_SPANS:
            self.spans.close()

    def __enter__(self) -> "ObsContext":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
