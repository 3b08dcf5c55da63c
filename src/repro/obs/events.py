"""ZScope event tracing: typed records, pluggable sinks, the bus.

The simulator's distributional claims (eviction-priority CDFs, walk
shapes, bank contention) need *streams*, not end-of-run aggregates.
The trace bus emits one typed, slotted record per interesting event:

==============  ==========================================================
kind            fields
==============  ==========================================================
``access``      cache, address, write, hit
``miss``        cache, address, write
``walk``        cache, address, tag_reads, candidates, truncated,
                level_counts (candidates discovered per walk level)
``relocation``  cache, address, src/dst positions, level
``eviction``    cache, address, priority (normalised eviction priority
                ``e`` when a tracker is attached, else None), level,
                dirty
==============  ==========================================================

Sinks are pluggable: :class:`NullSink` (the default — emission is
skipped entirely because call sites cache ``None`` for a disabled bus),
:class:`RingBufferSink` (last-N in memory, for tests and debugging) and
:class:`JsonlSink` (one JSON object per line, for offline analysis).
Records carry a bus-local monotonic ``seq`` instead of any wall-clock
timestamp: traces stay byte-identical across hosts, preserving the
repo's determinism contract (and the ZS005 no-host-clock rule).
"""

from __future__ import annotations

import gzip
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, IO, Iterable, Iterator, Optional, Union


@dataclass(slots=True, frozen=True)
class AccessEvent:
    """One cache access (hit or miss)."""

    kind = "access"
    seq: int
    cache: str
    address: int
    write: bool
    hit: bool


@dataclass(slots=True, frozen=True)
class MissEvent:
    """A demand access that missed."""

    kind = "miss"
    seq: int
    cache: str
    address: int
    write: bool


@dataclass(slots=True, frozen=True)
class WalkEvent:
    """One replacement-candidate collection (the zcache walk)."""

    kind = "walk"
    seq: int
    cache: str
    address: int
    tag_reads: int
    candidates: int
    truncated: bool
    #: number of candidates discovered at each walk level
    level_counts: tuple[int, ...]


@dataclass(slots=True, frozen=True)
class RelocationEvent:
    """One block moved along a walk path during a commit."""

    kind = "relocation"
    seq: int
    cache: str
    address: int
    src_way: int
    src_index: int
    dst_way: int
    dst_index: int
    #: walk level of the slot the block moved into
    level: int


@dataclass(slots=True, frozen=True)
class EvictionEvent:
    """One block evicted by replacement (not invalidation)."""

    kind = "eviction"
    seq: int
    cache: str
    address: int
    #: normalised eviction priority e in [0, 1] when an attached
    #: TrackedPolicy measured it, else None
    priority: Optional[float]
    #: walk level of the victim (relocations its commit cost)
    level: int
    dirty: bool


TraceEvent = Union[
    AccessEvent, MissEvent, WalkEvent, RelocationEvent, EvictionEvent
]

#: kind string -> event class, for parsing serialized traces
EVENT_TYPES: dict[str, type] = {
    cls.kind: cls
    for cls in (AccessEvent, MissEvent, WalkEvent, RelocationEvent, EvictionEvent)
}


def event_to_dict(event: TraceEvent) -> dict[str, Any]:
    """Serializable dict form: the fields plus an ``ev`` kind tag."""
    d = asdict(event)
    d["ev"] = event.kind
    return d


def event_from_dict(d: dict[str, Any]) -> TraceEvent:
    """Rebuild a typed event from :func:`event_to_dict` output."""
    payload = dict(d)
    kind = payload.pop("ev")
    cls = EVENT_TYPES.get(kind)
    if cls is None:
        raise ValueError(f"unknown trace event kind {kind!r}")
    if "level_counts" in payload:
        payload["level_counts"] = tuple(payload["level_counts"])
    return cls(**payload)


# ---------------------------------------------------------------------------
# Sinks
# ---------------------------------------------------------------------------


class TraceSink:
    """Where emitted events go. Subclasses override :meth:`write`.

    ``enabled`` is the bus's fast-path signal: when False (the null
    sink) instrumented components cache ``None`` instead of the bus and
    skip event construction entirely.
    """

    enabled = True

    def write(self, event: TraceEvent) -> None:
        """Consume one event."""
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release resources (no-op by default)."""

    def __enter__(self) -> "TraceSink":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class NullSink(TraceSink):
    """Discard everything; marks the bus disabled (the default)."""

    enabled = False

    def write(self, event: TraceEvent) -> None:
        """Drop the event."""


class RingBufferSink(TraceSink):
    """Keep the last ``capacity`` events in memory."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._buf: list[TraceEvent] = []
        self._next = 0
        self.written = 0

    def write(self, event: TraceEvent) -> None:
        """Append, overwriting the oldest event once full."""
        if len(self._buf) < self.capacity:
            self._buf.append(event)
        else:
            self._buf[self._next] = event
            self._next = (self._next + 1) % self.capacity
        self.written += 1

    def events(self) -> list[TraceEvent]:
        """Retained events, oldest first."""
        return self._buf[self._next :] + self._buf[: self._next]


def _open_text(path: Path, mode: str) -> IO[str]:
    """Open a JSONL file for text I/O, gzip-compressed by ``.gz`` suffix."""
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


class JsonlWriter:
    """Line-oriented JSON writer, gzip-compressed by ``.gz`` suffix.

    The shared back-end of :class:`JsonlSink` (trace events) and the
    span sinks; JSON lines compress ~10x.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.written = 0
        self._file: IO[str] = _open_text(self.path, "w")

    def write_obj(self, obj: dict[str, Any]) -> None:
        """Serialize and append one JSON object line."""
        self._file.write(json.dumps(obj, sort_keys=True))
        self._file.write("\n")
        self.written += 1

    def close(self) -> None:
        """Flush and close the file (idempotent)."""
        if not self._file.closed:
            self._file.close()


class JsonlSink(TraceSink):
    """Write one JSON object per event to a file (JSON Lines).

    A ``.gz`` path is gzip-compressed (see :class:`JsonlWriter`);
    :func:`read_jsonl` reads either transparently.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self._writer = JsonlWriter(path)
        self.path = self._writer.path

    @property
    def written(self) -> int:
        """Number of events written."""
        return self._writer.written

    def write(self, event: TraceEvent) -> None:
        """Serialize and append one event line."""
        self._writer.write_obj(event_to_dict(event))

    def close(self) -> None:
        """Flush and close the file (idempotent)."""
        self._writer.close()


def iter_jsonl_objects(path: Union[str, Path]) -> Iterator[dict[str, Any]]:
    """Yield the JSON objects of one JSONL file (gzip by ``.gz`` suffix)."""
    with _open_text(Path(path), "r") as f:
        for line in f:
            line = line.strip()
            if line:
                obj = json.loads(line)
                assert isinstance(obj, dict)
                yield obj


def read_jsonl(path: Union[str, Path]) -> Iterator[TraceEvent]:
    """Parse a :class:`JsonlSink` output back into typed events.

    Transparently handles gzip-compressed files (``.gz`` suffix).
    """
    for obj in iter_jsonl_objects(path):
        yield event_from_dict(obj)


# ---------------------------------------------------------------------------
# The bus
# ---------------------------------------------------------------------------


class TraceBus:
    """Sequencing front-end over a sink.

    Instrumented components receive the bus and check ``enabled`` once
    (caching ``None`` when disabled), so the null configuration costs
    one attribute test at attach time, not per event. Emission methods
    construct the typed record, stamp the monotonic ``seq``, and hand
    it to the sink.
    """

    __slots__ = ("sink", "enabled", "seq")

    def __init__(self, sink: Optional[TraceSink] = None) -> None:
        self.sink = sink if sink is not None else NullSink()
        self.enabled = self.sink.enabled
        self.seq = 0

    def access(self, cache: str, address: int, write: bool, hit: bool) -> None:
        """Emit an ``access`` record."""
        self.seq += 1
        self.sink.write(AccessEvent(self.seq, cache, address, write, hit))

    def miss(self, cache: str, address: int, write: bool) -> None:
        """Emit a ``miss`` record."""
        self.seq += 1
        self.sink.write(MissEvent(self.seq, cache, address, write))

    def walk(
        self,
        cache: str,
        address: int,
        tag_reads: int,
        candidates: int,
        truncated: bool,
        level_counts: tuple[int, ...],
    ) -> None:
        """Emit a ``walk`` record."""
        self.seq += 1
        self.sink.write(
            WalkEvent(
                self.seq, cache, address, tag_reads, candidates,
                truncated, level_counts,
            )
        )

    def relocation(
        self,
        cache: str,
        address: int,
        src: tuple[int, int],
        dst: tuple[int, int],
        level: int,
    ) -> None:
        """Emit a ``relocation`` record."""
        self.seq += 1
        self.sink.write(
            RelocationEvent(
                self.seq, cache, address, src[0], src[1], dst[0], dst[1], level
            )
        )

    def eviction(
        self,
        cache: str,
        address: int,
        priority: Optional[float],
        level: int,
        dirty: bool,
    ) -> None:
        """Emit an ``eviction`` record."""
        self.seq += 1
        self.sink.write(
            EvictionEvent(self.seq, cache, address, priority, level, dirty)
        )

    def close(self) -> None:
        """Close the underlying sink."""
        self.sink.close()


# ---------------------------------------------------------------------------
# Offline reconstruction helpers
# ---------------------------------------------------------------------------


def collect_eviction_priorities(
    events: Iterable[TraceEvent],
) -> dict[str, list[float]]:
    """Per-cache eviction-priority streams from a trace.

    The offline half of the Fig. 2 pipeline: feeding the returned lists
    to :class:`~repro.assoc.distribution.AssociativityDistribution`
    reconstructs the associativity CDF a run measured in-process.
    Evictions without a recorded priority (no tracker attached) are
    skipped.
    """
    out: dict[str, list[float]] = {}
    for event in events:
        if isinstance(event, EvictionEvent) and event.priority is not None:
            out.setdefault(event.cache, []).append(event.priority)
    return out


def count_by_kind(events: Iterable[TraceEvent]) -> dict[str, int]:
    """Event counts keyed by kind (trace summaries)."""
    out: dict[str, int] = {}
    for event in events:
        out[event.kind] = out.get(event.kind, 0) + 1
    return out
