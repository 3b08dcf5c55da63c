"""ZTrace timeline: Perfetto export and critical-path analysis.

The consumers of a span tree (:mod:`repro.obs.spans`):

- :func:`to_chrome_trace` / :func:`write_chrome_trace` — export to the
  Chrome trace-event JSON format (the ``{"traceEvents": [...]}`` object
  form), loadable in Perfetto (https://ui.perfetto.dev) or
  ``chrome://tracing``. Each distinct process label becomes one pid
  row; each (process, thread) pair one tid track.
- :func:`validate_chrome_trace` — a self-contained schema check behind
  ``timeline --check`` (no jsonschema dependency).
- :func:`critical_path` — the chain of spans that determined the
  root's end time: descend from the root into whichever child finished
  last, attributing to each node on the chain the tail segment no
  child covers. The sum of the attributed segments equals the root
  duration, which is what makes the report an *attribution*, not a
  listing.
- :func:`phase_stats` / :func:`coverage` — straggler statistics:
  p50/p95/max per phase name, and how much of the root's wall time its
  children account for.

Everything here is pure post-processing over finished
:class:`~repro.obs.spans.Span` records — no clocks, no simulator state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Optional, Sequence, Union

from repro.obs.spans import Span

# ---------------------------------------------------------------------------
# Tree structure
# ---------------------------------------------------------------------------


def children_index(spans: Sequence[Span]) -> dict[int, list[Span]]:
    """Map span id -> children sorted by start time."""
    known = {s.span_id for s in spans}
    index: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent_id is not None and span.parent_id in known:
            index.setdefault(span.parent_id, []).append(span)
    for kids in index.values():
        kids.sort(key=lambda s: (s.start, s.span_id))
    return index


def root_spans(spans: Sequence[Span]) -> list[Span]:
    """Spans with no parent present in the set, sorted by start."""
    known = {s.span_id for s in spans}
    roots = [
        s for s in spans if s.parent_id is None or s.parent_id not in known
    ]
    roots.sort(key=lambda s: (s.start, s.span_id))
    return roots


def _union_seconds(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    ordered = sorted(i for i in intervals if i[1] > i[0])
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in ordered:
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None and cur_lo is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None and cur_lo is not None:
        total += cur_hi - cur_lo
    return total


def coverage(spans: Sequence[Span], root: Span) -> float:
    """Fraction of ``root``'s duration its direct children account for.

    The acceptance metric for span placement: if every phase of the run
    opened its span under the root, the union of the root's child
    intervals (clipped to the root) covers nearly all of its measured
    wall time — bookkeeping between phases is the only uncovered
    slack.
    """
    if root.duration <= 0.0:
        return 1.0
    kids = children_index(spans).get(root.span_id, [])
    clipped = [
        (max(k.start, root.start), min(k.end, root.end)) for k in kids
    ]
    return _union_seconds(clipped) / root.duration


# ---------------------------------------------------------------------------
# Critical path
# ---------------------------------------------------------------------------


@dataclass(slots=True, frozen=True)
class PathStep:
    """One attributed segment on the critical path.

    A span can contribute several steps (a parent re-appears between
    its children's intervals); the ``attributed`` seconds across all
    steps sum to the root's duration.
    """

    span: Span
    attributed: float
    depth: int


def critical_path(spans: Sequence[Span], root: Span) -> list[PathStep]:
    """The chain of work that determined ``root``'s end time.

    Backward walk from the root's end: whatever was running at each
    instant owns that segment. At a node, the child that finished last
    (before the current cutoff) owns the interval up to its end — the
    walk descends into it, and on return resumes in the parent from
    that child's start, picking up the next-latest child, until the
    node's own start. The attributed segments partition the root's
    duration exactly, which is what makes the report an attribution of
    the sweep's wall time to its true bottlenecks. With overlapping
    children (parallel jobs), only the straggler chain is descended —
    siblings hidden under an already-attributed interval are skipped.
    Returned in chronological order.
    """
    index = children_index(spans)
    segments: list[PathStep] = []

    def visit(span: Span, cutoff: float, depth: int) -> None:
        t = max(min(cutoff, span.end), span.start)
        kids = [
            k
            for k in index.get(span.span_id, [])
            if k.end > span.start
        ]
        kids.sort(key=lambda s: (s.end, s.start, s.span_id), reverse=True)
        for kid in kids:
            if kid.end > t:
                continue  # hidden under an already-attributed interval
            if t - kid.end > 0.0:
                segments.append(PathStep(span, t - kid.end, depth))
            visit(kid, kid.end, depth + 1)
            t = max(kid.start, span.start)
        if t - span.start > 0.0 or not segments:
            segments.append(PathStep(span, max(t - span.start, 0.0), depth))

    visit(root, root.end, 0)
    segments.reverse()
    return segments


def render_critical_path(steps: Sequence[PathStep]) -> list[str]:
    """Human-readable critical-path report lines (chronological)."""
    total = sum(s.attributed for s in steps)
    lines = [f"critical path ({total * 1e3:.3f} ms attributed):"]
    for step in steps:
        pct = 100.0 * step.attributed / total if total > 0 else 0.0
        indent = "  " * step.depth
        lines.append(
            f"  {step.attributed * 1e3:10.3f} ms {pct:5.1f}%  "
            f"{indent}{step.span.name} "
            f"[{step.span.process}/{step.span.thread}]"
        )
    return lines


# ---------------------------------------------------------------------------
# Straggler statistics
# ---------------------------------------------------------------------------


def _percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sequence."""
    if not ordered:
        return 0.0
    rank = max(0, min(len(ordered) - 1, round(q * (len(ordered) - 1))))
    return ordered[rank]


def phase_name(name: str) -> str:
    """Collapse rolling-batch suffixes: ``fig2.batch17`` -> ``fig2.batch``."""
    head, dot, tail = name.rpartition(".")
    if dot and tail.startswith("batch") and tail[len("batch"):].isdigit():
        return f"{head}.batch"
    return name


def phase_stats(spans: Sequence[Span]) -> dict[str, dict[str, float]]:
    """p50/p95/max/total duration per collapsed phase name."""
    groups: dict[str, list[float]] = {}
    for span in spans:
        groups.setdefault(phase_name(span.name), []).append(
            max(span.duration, 0.0)
        )
    out: dict[str, dict[str, float]] = {}
    for name in sorted(groups):
        durations = sorted(groups[name])
        out[name] = {
            "count": float(len(durations)),
            "p50": _percentile(durations, 0.50),
            "p95": _percentile(durations, 0.95),
            "max": durations[-1],
            "total": sum(durations),
        }
    return out


# ---------------------------------------------------------------------------
# Chrome trace-event export
# ---------------------------------------------------------------------------


def _micros(seconds: float) -> float:
    return round(seconds * 1e6, 3)


def to_chrome_trace(spans: Sequence[Span]) -> dict[str, Any]:
    """Export spans as a Chrome trace-event JSON object.

    Produces the object form (``{"traceEvents": [...]}``) with one
    ``ph: "X"`` complete event per span (``ts``/``dur`` in
    microseconds) plus ``ph: "M"`` metadata naming each process row and
    thread track. Pids are assigned in first-seen order with the
    parent (``main``) pinned to pid 1; tids are per (process, thread)
    pair, so threads with their own labels land on separate tracks.
    """
    pids: dict[str, int] = {}
    tids: dict[tuple[str, str], int] = {}
    ordered = sorted(spans, key=lambda s: (s.start, s.span_id))
    for span in ordered:
        if span.process == "main" and "main" not in pids:
            pids["main"] = 1
    for span in ordered:
        pids.setdefault(span.process, len(pids) + 1)
        tids.setdefault((span.process, span.thread), len(tids) + 1)

    events: list[dict[str, Any]] = []
    for process, pid in pids.items():
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": process},
            }
        )
    for (process, thread), tid in tids.items():
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": pids[process],
                "tid": tid,
                "args": {"name": thread},
            }
        )
    for span in ordered:
        args: dict[str, Any] = {
            "span_id": f"{span.span_id:016x}",
            "trace_id": f"{span.trace_id:016x}",
        }
        if span.parent_id is not None:
            args["parent_id"] = f"{span.parent_id:016x}"
        args.update(span.attrs)
        events.append(
            {
                "ph": "X",
                "name": span.name,
                "cat": "ztrace",
                "ts": _micros(span.start),
                "dur": _micros(max(span.duration, 0.0)),
                "pid": pids[span.process],
                "tid": tids[(span.process, span.thread)],
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    path: Union[str, Path], spans: Sequence[Span]
) -> Path:
    """Write :func:`to_chrome_trace` output as JSON; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(to_chrome_trace(spans), f, sort_keys=True)
        f.write("\n")
    return path


def validate_chrome_trace(payload: Any) -> list[str]:
    """Check a payload against the Chrome trace-event schema.

    Returns a list of error strings (empty when valid). Covers the
    subset the exporter emits — object form with a ``traceEvents``
    list, ``X`` complete events with numeric non-negative ``ts``/
    ``dur`` and integer ``pid``/``tid``, ``M`` metadata events naming
    processes and threads — which is also the subset Perfetto needs to
    load the file. Behind ``timeline --check``.
    """
    errors: list[str] = []
    if not isinstance(payload, dict):
        return [f"top level must be an object, got {type(payload).__name__}"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-list 'traceEvents'"]
    named_pids: set[int] = set()
    used_pids: set[int] = set()
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in ("X", "M"):
            errors.append(f"{where}: unsupported ph {ph!r}")
            continue
        if not isinstance(ev.get("name"), str) or not ev["name"]:
            errors.append(f"{where}: missing span name")
        if not isinstance(ev.get("pid"), int) or not isinstance(
            ev.get("tid"), int
        ):
            errors.append(f"{where}: pid/tid must be integers")
            continue
        if ph == "M":
            if ev["name"] not in ("process_name", "thread_name"):
                errors.append(f"{where}: unknown metadata {ev['name']!r}")
            args = ev.get("args")
            if not isinstance(args, dict) or not isinstance(
                args.get("name"), str
            ):
                errors.append(f"{where}: metadata needs args.name")
            elif ev["name"] == "process_name":
                named_pids.add(ev["pid"])
        else:
            for field_name in ("ts", "dur"):
                value = ev.get(field_name)
                if not isinstance(value, (int, float)) or value < 0:
                    errors.append(
                        f"{where}: {field_name} must be a non-negative number"
                    )
            used_pids.add(ev["pid"])
    for pid in sorted(used_pids - named_pids):
        errors.append(f"pid {pid} has events but no process_name metadata")
    return errors


# ---------------------------------------------------------------------------
# Report assembly (the ``timeline`` CLI)
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class TimelineReport:
    """Everything the ``timeline`` CLI prints for one span tree."""

    root: Span
    coverage: float
    steps: list[PathStep]
    phases: dict[str, dict[str, float]]


def analyze(spans: Sequence[Span], root: Optional[Span] = None) -> TimelineReport:
    """Build the full timeline report for a span set."""
    if root is None:
        roots = root_spans(spans)
        if not roots:
            raise ValueError("no spans to analyze")
        root = max(roots, key=lambda s: max(s.duration, 0.0))
    return TimelineReport(
        root=root,
        coverage=coverage(spans, root),
        steps=critical_path(spans, root),
        phases=phase_stats(spans),
    )


def render_report(
    report: TimelineReport, wall: float, critical_path: bool
) -> list[str]:
    """Human-readable timeline summary lines.

    ``wall`` is the caller's own measurement of the run in seconds (the
    root span is reported against it); ``critical_path`` adds the
    longest dependency chain.
    """
    root = report.root
    lines = [
        f"root span '{root.name}': {root.duration * 1e3:.3f} ms of "
        f"{wall * 1e3:.3f} ms measured wall, child coverage "
        f"{report.coverage * 100:.1f}%",
    ]
    if critical_path:
        lines.extend(render_critical_path(report.steps))
    lines.append("per-phase durations (p50/p95/max ms):")
    for name, stats in report.phases.items():
        lines.append(
            f"  {name:32s} n={int(stats['count']):4d}  "
            f"{stats['p50'] * 1e3:9.3f} {stats['p95'] * 1e3:9.3f} "
            f"{stats['max'] * 1e3:9.3f}"
        )
    return lines
