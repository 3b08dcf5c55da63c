"""ZTrace spans: hierarchical, cross-process span tracing.

A flat per-name total answers "how much wall time did phase X
accumulate"; it cannot answer "which chain of work determined the
sweep's end-to-end latency" or "which worker was the straggler". Spans
carry the structure for both (:mod:`repro.obs.timeline` derives the
flat totals, the critical path and worker utilization from them):

- a :class:`Span` is one timed interval with a name, attributes, a
  deterministic 64-bit id, and a parent — so spans form trees;
- a :class:`SpanTracker` owns a monotonic clock origin, an ambient
  (thread-local) current-span stack, and the finished-span list. The
  public way to open a span is the context manager :meth:`SpanTracker.span`,
  which guarantees the span closes on exceptions (rule ZS109 enforces
  this discipline in ``core/``, ``kernels/`` and ``experiments/``);
- a :class:`SpanContext` is the serializable capsule the parallel
  sweep engine ships to worker processes: the worker's tracker derives
  its ids from the *job seed*, parents its roots under the parent-side
  job span, and records into a per-worker JSONL sink
  (:class:`SpanSink`); the parent stitches the worker trees back into
  one tree keyed by job fingerprint (:meth:`SpanTracker.adopt`).

Span *ids* are deterministic — ``splitmix64`` chains seeded by the
tracker seed (the sweep seed in the parent, the derived job seed in a
worker) — so retried jobs, resumed sweeps and diffed traces line up.
Durations are wall-clock (``time.perf_counter``): spans measure the
simulator *process*, never simulated time, which is why this module
lives in the ZS005-exempt obs package. Cross-process stitching relies
on ``perf_counter`` being a shared monotonic clock across processes on
one host (CLOCK_MONOTONIC on Linux); :meth:`adopt` clamps pathological
skew into the parent window.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from threading import local
from typing import TYPE_CHECKING, Any, Iterator, Optional, Union

from repro.hashing.mixers import splitmix64

if TYPE_CHECKING:
    from repro.kernels.engine import TurboCore

_MASK64 = (1 << 64) - 1

#: domain-separation salt so a tracker's trace id never collides with
#: the span-id chain of a tracker seeded with a nearby integer
_TRACE_SALT = 0x5A54524143453A31  # "ZTRACE:1"


def derive_trace_id(seed: int) -> int:
    """Deterministic 64-bit trace id for a tracker seed."""
    return splitmix64((seed ^ _TRACE_SALT) & _MASK64)


def derive_span_id(trace_id: int, index: int) -> int:
    """Deterministic id of the ``index``-th span of a trace."""
    return splitmix64((trace_id + index) & _MASK64)


@dataclass(slots=True)
class Span:
    """One finished (or still-open) timed interval in a span tree.

    ``start`` is seconds since the owning tracker's clock origin;
    ``duration`` is −1.0 while the span is open. Attributes are free
    form but must be JSON-serializable (they travel through the
    per-worker JSONL sinks and into the Chrome trace export).
    """

    name: str
    span_id: int
    parent_id: Optional[int]
    trace_id: int
    process: str
    thread: str
    start: float
    duration: float = -1.0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def end(self) -> float:
        """Span end offset (start while still open)."""
        return self.start + max(self.duration, 0.0)

    def set_attr(self, **attrs: Any) -> None:
        """Attach attributes to this span."""
        self.attrs.update(attrs)

    def to_dict(self) -> dict[str, Any]:
        """Serializable form (the JSONL sink line)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "process": self.process,
            "thread": self.thread,
            "start": self.start,
            "duration": self.duration,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "Span":
        """Rebuild a span from :meth:`to_dict` output."""
        return cls(
            name=d["name"],
            span_id=d["span_id"],
            parent_id=d["parent_id"],
            trace_id=d["trace_id"],
            process=d["process"],
            thread=d["thread"],
            start=d["start"],
            duration=d["duration"],
            attrs=dict(d.get("attrs", {})),
        )


@dataclass(slots=True, frozen=True)
class SpanContext:
    """The cross-process propagation capsule.

    The parent serializes one of these into each parallel job: the
    worker's tracker seeds its id chain from ``seed`` (the derived job
    seed, so ids are stable across retries), labels its spans with
    ``process``/``thread``, parents its root spans under
    ``parent_span_id`` (the parent-side job span), and — when
    ``sink_path`` is set — streams records to that per-worker JSONL
    file for the parent to stitch after the join.
    """

    seed: int
    parent_span_id: Optional[int]
    process: str = "worker"
    thread: str = "main"
    sink_path: Optional[str] = None

    def to_dict(self) -> dict[str, Any]:
        """Serializable form (crosses the process boundary as a dict)."""
        return {
            "seed": self.seed,
            "parent_span_id": self.parent_span_id,
            "process": self.process,
            "thread": self.thread,
            "sink_path": self.sink_path,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "SpanContext":
        """Rebuild a context from :meth:`to_dict` output."""
        return cls(
            seed=d["seed"],
            parent_span_id=d.get("parent_span_id"),
            process=d.get("process", "worker"),
            thread=d.get("thread", "main"),
            sink_path=d.get("sink_path"),
        )


class SpanSink:
    """Per-worker JSONL sink for span records (gzip by ``.gz`` suffix).

    The first line is a header object (``{"hdr": {...}}``) carrying the
    tracker's absolute clock origin, process label and trace id — the
    stitcher needs the origin to re-base worker offsets onto the parent
    timeline. Every subsequent line is one :meth:`Span.to_dict` object.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        from repro.obs.events import JsonlWriter

        self._writer = JsonlWriter(path)
        self.path = self._writer.path

    def write_header(self, header: dict[str, Any]) -> None:
        """Write the tracker header line."""
        self._writer.write_obj({"hdr": header})

    def write(self, span: Span) -> None:
        """Append one finished span."""
        self._writer.write_obj(span.to_dict())

    def close(self) -> None:
        """Flush and close (idempotent)."""
        self._writer.close()


def read_span_export(path: Union[str, Path]) -> dict[str, Any]:
    """Parse a :class:`SpanSink` file back into an export dict.

    Returns the same shape as :meth:`SpanTracker.export`:
    ``{"origin", "process", "trace_id", "spans": [Span, ...]}``.
    """
    from repro.obs.events import iter_jsonl_objects

    header: dict[str, Any] = {}
    spans: list[Span] = []
    for obj in iter_jsonl_objects(path):
        if "hdr" in obj:
            header = obj["hdr"]
        else:
            spans.append(Span.from_dict(obj))
    return {
        "origin": float(header.get("origin", 0.0)),
        "process": str(header.get("process", "worker")),
        "trace_id": int(header.get("trace_id", 0)),
        "spans": spans,
    }


class SpanTracker:
    """Owner of one process's span tree: clock, ambient stack, records.

    A tracker is either enabled (records spans, reads the monotonic
    clock) or the shared :data:`NULL_SPANS` no-op. The ambient stack is
    thread-local: a span opened on a thread parents subsequent spans on
    that thread only. Ids are deterministic (seed-derived); timings are
    wall-clock.
    """

    def __init__(
        self,
        seed: int = 0,
        process: str = "main",
        thread: str = "main",
        enabled: bool = True,
        sink: Optional[SpanSink] = None,
        root_parent_id: Optional[int] = None,
    ) -> None:
        self.enabled = enabled
        self.seed = seed
        self.process = process
        self.thread = thread
        self.trace_id = derive_trace_id(seed)
        self.origin = time.perf_counter() if enabled else 0.0
        self.sink = sink
        self.root_parent_id = root_parent_id
        self._spans: list[Span] = []
        self._count = 0
        self._tls = local()
        if sink is not None:
            sink.write_header(self.header())

    @classmethod
    def from_context(
        cls, ctx: SpanContext, process: Optional[str] = None
    ) -> "SpanTracker":
        """A worker-side tracker honouring a parent's :class:`SpanContext`.

        ``process`` overrides the context's process label — the parent
        cannot know which pool process will pick a job up, so workers
        stamp their own (``worker-<os pid>``) at construction.
        """
        sink = SpanSink(ctx.sink_path) if ctx.sink_path else None
        return cls(
            seed=ctx.seed,
            process=process if process is not None else ctx.process,
            thread=ctx.thread,
            sink=sink,
            root_parent_id=ctx.parent_span_id,
        )

    def header(self) -> dict[str, Any]:
        """The sink/export header: clock origin + identity."""
        return {
            "origin": self.origin,
            "process": self.process,
            "trace_id": self.trace_id,
        }

    # -- the ambient stack -------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = []
            self._tls.stack = stack
        return stack

    def current(self) -> Optional[Span]:
        """The innermost open span on this thread (None outside spans)."""
        stack = self._stack()
        return stack[-1] if stack else None

    def current_id(self) -> Optional[int]:
        """The innermost open span's id (``root_parent_id`` outside spans)."""
        span = self.current()
        return span.span_id if span is not None else self.root_parent_id

    def set_attr(self, **attrs: Any) -> None:
        """Attach attributes to the innermost open span (no-op outside)."""
        span = self.current()
        if span is not None:
            span.set_attr(**attrs)

    # -- span lifecycle ----------------------------------------------------
    def now(self) -> float:
        """Seconds since the tracker's clock origin."""
        return time.perf_counter() - self.origin

    def _next_id(self) -> int:
        self._count += 1
        return derive_span_id(self.trace_id, self._count)

    def _start(
        self,
        name: str,
        span_id: Optional[int] = None,
        parent_id: Optional[int] = None,
        **attrs: Any,
    ) -> Span:
        """Open a span and push it on the ambient stack (internal).

        Callers outside the obs package must use :meth:`span` (or a
        tracker-managed helper such as :meth:`turbo_batches`) so the
        span is guaranteed to close — see lint rule ZS109.
        """
        span = Span(
            name=name,
            span_id=span_id if span_id is not None else self._next_id(),
            parent_id=parent_id if parent_id is not None else self.current_id(),
            trace_id=self.trace_id,
            process=self.process,
            thread=self.thread,
            start=self.now(),
            attrs=dict(attrs),
        )
        self._stack().append(span)
        return span

    def _finish(self, span: Span) -> None:
        """Close an open span and record it (internal)."""
        span.duration = self.now() - span.start
        stack = self._stack()
        if span in stack:
            # Close any children left open (exception unwinding).
            while stack and stack[-1] is not span:
                dangling = stack.pop()
                dangling.duration = span.start + span.duration - dangling.start
                self._record(dangling)
            stack.pop()
        self._record(span)

    def _record(self, span: Span) -> None:
        self._spans.append(span)
        if self.sink is not None:
            self.sink.write(span)

    @contextmanager
    def span(
        self,
        name: str,
        span_id: Optional[int] = None,
        parent_id: Optional[int] = None,
        **attrs: Any,
    ) -> Iterator[Optional[Span]]:
        """Open a span for the enclosed block (the sanctioned way).

        Yields the open :class:`Span` (None on a disabled tracker) so
        the body can :meth:`Span.set_attr` as it learns outcomes. The
        span always closes — including on exceptions — which is the
        discipline rule ZS109 enforces at call sites in ``core/``,
        ``kernels/`` and ``experiments/``.
        """
        if not self.enabled:
            yield None
            return
        span = self._start(name, span_id=span_id, parent_id=parent_id, **attrs)
        try:
            yield span
        finally:
            self._finish(span)

    def record_span(
        self,
        name: str,
        start: float,
        end: float,
        span_id: Optional[int] = None,
        parent_id: Optional[int] = None,
        **attrs: Any,
    ) -> Optional[Span]:
        """Record an already-measured interval (never left open).

        For after-the-fact attribution — e.g. the parent's per-job
        submit→join windows, whose boundaries interleave across jobs and
        therefore cannot nest as context managers. ``start``/``end`` are
        tracker-relative offsets (:meth:`now` values).
        """
        if not self.enabled:
            return None
        span = Span(
            name=name,
            span_id=span_id if span_id is not None else self._next_id(),
            parent_id=parent_id if parent_id is not None else self.current_id(),
            trace_id=self.trace_id,
            process=self.process,
            thread=self.thread,
            start=start,
            duration=max(end - start, 0.0),
            attrs=dict(attrs),
        )
        self._record(span)
        return span

    @contextmanager
    def turbo_batches(
        self,
        core: Optional["TurboCore"],
        name: str,
        every: int = 8192,
    ) -> Iterator[None]:
        """Roll a span per ``every`` turbo accesses via the core's hook.

        Tracker-managed (the ZS109 "with-equivalent"): entering installs
        a batch hook on the :class:`~repro.kernels.engine.TurboCore`
        that closes the running ``<name>.batch<k>`` span and opens the
        next at each boundary; exiting closes the open span and removes
        the hook — so batch spans can never leak past the access loop,
        even on exceptions. A ``None`` core or a disabled tracker makes
        this a no-op.
        """
        if core is None or not self.enabled:
            yield
            return
        state: dict[str, Any] = {"open": self._start(f"{name}.batch0", index=0)}

        def boundary(index: int) -> None:
            self._finish(state["open"])
            state["open"] = self._start(f"{name}.batch{index}", index=index)

        core.set_batch_hook(boundary, every)
        try:
            yield
        finally:
            core.set_batch_hook(None, 0)
            self._finish(state["open"])

    # -- export / stitching ------------------------------------------------
    def spans(self) -> list[Span]:
        """Finished spans, in completion order."""
        return list(self._spans)

    def export(self) -> dict[str, Any]:
        """Header + finished spans (the in-memory stitch payload)."""
        payload = self.header()
        payload["spans"] = self.spans()
        return payload

    def adopt(
        self,
        export: dict[str, Any],
        window: Optional[tuple[float, float]] = None,
    ) -> int:
        """Stitch another tracker's export into this tracker's timeline.

        Worker span offsets are re-based by the difference of absolute
        clock origins (``perf_counter`` is machine-wide monotonic on
        Linux). When a ``window`` (tracker-relative ``(lo, hi)``, e.g.
        the parent-side job span) is given, adopted spans are clamped
        into it — a guard against cross-platform clock skew, so the
        stitched tree can never extend outside the parent's measured
        wall time. Returns the number of spans adopted.
        """
        if not self.enabled:
            return 0
        offset = float(export.get("origin", self.origin)) - self.origin
        adopted = 0
        for span in export.get("spans", ()):
            start = span.start + offset
            duration = max(span.duration, 0.0)
            if window is not None:
                lo, hi = window
                start = min(max(start, lo), hi)
                duration = min(duration, hi - start)
            self._record(
                Span(
                    name=span.name,
                    span_id=span.span_id,
                    parent_id=(
                        span.parent_id
                        if span.parent_id is not None
                        else self.root_parent_id
                    ),
                    trace_id=span.trace_id,
                    process=span.process,
                    thread=span.thread,
                    start=start,
                    duration=duration,
                    attrs=dict(span.attrs),
                )
            )
            adopted += 1
        return adopted

    def close(self) -> None:
        """Close any spans left open, then close the sink (idempotent)."""
        stack = self._stack()
        while stack:
            self._finish(stack[-1])
        if self.sink is not None:
            self.sink.close()


#: shared disabled tracker for call sites running without spans
NULL_SPANS = SpanTracker(enabled=False)
