"""ZTrace spans: hierarchical span tracing.

A flat per-name total answers "how much wall time did phase X
accumulate"; it cannot answer "which chain of work determined the
sweep's end-to-end latency" or "which job was the straggler". Spans
carry the structure for both (:mod:`repro.obs.timeline` derives the
flat totals, the critical path and per-phase percentiles from them):

- a :class:`Span` is one timed interval with a name, attributes, a
  deterministic 64-bit id, and a parent — so spans form trees;
- a :class:`SpanTracker` owns a monotonic clock origin, an ambient
  (thread-local) current-span stack, and the finished-span list. The
  public way to open a span is the context manager :meth:`SpanTracker.span`,
  which guarantees the span closes on exceptions (rule ZS109 enforces
  this discipline in ``core/``, ``kernels/`` and ``experiments/``);
  :meth:`SpanTracker.record_span` records an interval measured after
  the fact, such as a pooled sweep job's submit-to-result window.

Spans live in the process that records them: the parallel sweep
engine's workers record none, and the parent records one span per
job. Span *ids* are deterministic — ``splitmix64`` chains seeded by the
tracker seed — so resumed sweeps and diffed traces line up. Durations
are wall-clock (``time.perf_counter``): spans measure the simulator
*process*, never simulated time, which is why this module lives in the
ZS005-exempt obs package.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from threading import local
from typing import TYPE_CHECKING, Any, Iterator, Optional

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
    form but must be JSON-serializable (they go into the Chrome trace
    export).
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
    ) -> None:
        self.enabled = enabled
        self.seed = seed
        self.process = process
        self.thread = thread
        self.trace_id = derive_trace_id(seed)
        self.origin = time.perf_counter() if enabled else 0.0
        self._spans: list[Span] = []
        self._count = 0
        self._tls = local()

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
        """The innermost open span's id (None outside spans)."""
        span = self.current()
        return span.span_id if span is not None else None

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

    def _new(self, name: str, start: float, attrs: dict[str, Any]) -> Span:
        """A span under the innermost open one, with the next chain id."""
        return Span(
            name=name,
            span_id=self._next_id(),
            parent_id=self.current_id(),
            trace_id=self.trace_id,
            process=self.process,
            thread=self.thread,
            start=start,
            attrs=dict(attrs),
        )

    def _start(self, name: str, **attrs: Any) -> Span:
        """Open a span and push it on the ambient stack (internal).

        Callers outside the obs package must use :meth:`span` (or a
        tracker-managed helper such as :meth:`turbo_batches`) so the
        span is guaranteed to close — see lint rule ZS109.
        """
        span = self._new(name, self.now(), attrs)
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
                self._spans.append(dangling)
            stack.pop()
        self._spans.append(span)

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Optional[Span]]:
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
        span = self._start(name, **attrs)
        try:
            yield span
        finally:
            self._finish(span)

    def record_span(
        self, name: str, start: float, end: float, **attrs: Any
    ) -> Optional[Span]:
        """Record an already-measured interval (never left open).

        For after-the-fact attribution — e.g. the parent's per-job
        submit→result windows, whose boundaries interleave across jobs
        and therefore cannot nest as context managers. ``start``/``end``
        are tracker-relative offsets (:meth:`now` values).
        """
        if not self.enabled:
            return None
        span = self._new(name, start, attrs)
        span.duration = max(end - start, 0.0)
        self._spans.append(span)
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

    # -- export --------------------------------------------------------------
    def spans(self) -> list[Span]:
        """Finished spans, in completion order."""
        return list(self._spans)

    def close(self) -> None:
        """Close any spans left open (idempotent)."""
        stack = self._stack()
        while stack:
            self._finish(stack[-1])


#: shared disabled tracker for call sites running without spans
NULL_SPANS = SpanTracker(enabled=False)
