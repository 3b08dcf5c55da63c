"""Benchmark-owned in-memory span recorder.

Deliberately not :mod:`repro.obs`: later changes to the program's own
tracer must not be able to shift the ladder. A span is (name, start_ns,
end_ns, parent id, request id); spans nest by a stack, are kept in
column lists, and are written out once when the run ends.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Iterator, Optional


class SpanRecorder:
    """Records nested spans; ``enabled=False`` makes every call a no-op."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.name: list[str] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.request: list[int] = []
        self._stack: list[int] = [-1]

    def begin(self, name: str, request: int = -1) -> int:
        """Open a span under the innermost open one; returns its id."""
        sid = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1])
        self.request.append(request)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(perf_counter_ns())  # last: bookkeeping stays outside
        return sid

    def finish(self, sid: int) -> None:
        """Close span ``sid`` (must be the innermost open span)."""
        self.end[sid] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, request: int = -1) -> Iterator[None]:
        """``with`` form for coarse spans (per pass, per replay, per rung)."""
        if not self.enabled:
            yield
            return
        sid = self.begin(name, request)
        try:
            yield
        finally:
            self.finish(sid)

    def self_ns(self) -> list[int]:
        """Per span: its duration minus the part its children cover."""
        out = [e - s for s, e in zip(self.start, self.end)]
        for sid, parent in enumerate(self.parent):
            if parent >= 0:
                out[parent] -= self.end[sid] - self.start[sid]
        return out

    def totals(self, first: int = 0, last: Optional[int] = None) -> dict[str, tuple[int, int]]:
        """name -> (summed self ns, span count) over spans ``first..last``."""
        selfs = self.self_ns()
        out: dict[str, tuple[int, int]] = {}
        for sid in range(first, len(self.name) if last is None else last):
            ns, count = out.get(self.name[sid], (0, 0))
            out[self.name[sid]] = (ns + selfs[sid], count + 1)
        return out

    def dump(self, path: str, meta: dict) -> None:
        """Write every span as one row ``[name id, start, end, parent, request]``."""
        names = sorted(set(self.name))
        index = {n: i for i, n in enumerate(names)}
        rows = [
            [index[n], s, e, p, r]
            for n, s, e, p, r in zip(
                self.name, self.start, self.end, self.parent, self.request
            )
        ]
        with open(path, "w", encoding="utf-8") as f:
            json.dump(
                {
                    "meta": meta,
                    "columns": ["name", "start_ns", "end_ns", "parent", "request"],
                    "names": names,
                    "spans": rows,
                },
                f,
                separators=(",", ":"),
            )
