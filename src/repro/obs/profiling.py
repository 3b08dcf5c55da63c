"""ZScope profiling: phase timers and sweep heartbeats.

Two small tools for answering "where did the wall-clock go?" and "is
the sweep still alive?" during long experiment runs:

- :class:`PhaseTimer` attributes wall time to named phases
  (``capture.gcc``, ``replay.Z4_16-S.lru``, ...) via a context manager, and
  renders a per-component breakdown.
- :class:`Heartbeat` appends one progress line per beat to a single
  configurable log file — replacing the ad-hoc ``results/progress*.log``
  sprawl. It is disabled unless constructed with a path (or the
  ``ZCACHE_PROGRESS_LOG`` environment variable names one), so tests
  and library use never write files implicitly.

Host-clock reads are deliberate and legitimate here: these measure the
*simulator process*, never simulated time. The obs package is exempt
from the ZS005 no-host-clock rule for exactly this reason, mirroring
the analysis package's exemption.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator, Optional, Union

#: environment variable naming the default heartbeat log path
PROGRESS_LOG_ENV = "ZCACHE_PROGRESS_LOG"


class PhaseTimer:
    """Accumulate wall time per named phase.

    Usage::

        timer = PhaseTimer()
        with timer.phase("capture"):
            runner.capture()
        print(timer.render())

    Phases can repeat (times accumulate) and nest (each phase records
    its own wall span; nested spans are counted in both). A disabled
    timer (``enabled=False``) makes :meth:`phase` a no-op so call sites
    need no conditionals.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._seconds: dict[str, float] = {}
        self._counts: dict[str, int] = {}

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time the enclosed block under ``name``."""
        if not self.enabled:
            yield
            return
        t0 = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - t0
            self._seconds[name] = self._seconds.get(name, 0.0) + elapsed
            self._counts[name] = self._counts.get(name, 0) + 1

    def add(self, name: str, seconds: float) -> None:
        """Attribute an externally measured span to ``name``."""
        self._seconds[name] = self._seconds.get(name, 0.0) + seconds
        self._counts[name] = self._counts.get(name, 0) + 1

    def seconds(self, name: str) -> float:
        """Accumulated wall time for ``name`` (0.0 if never entered)."""
        return self._seconds.get(name, 0.0)

    def report(self) -> dict[str, float]:
        """phase name -> accumulated seconds (sorted descending)."""
        return dict(
            sorted(self._seconds.items(), key=lambda kv: -kv[1])
        )

    def render(self) -> str:
        """Aligned per-phase breakdown with percentage attribution."""
        report = self.report()
        if not report:
            return "(no phases recorded)"
        total = sum(report.values())
        width = max(len(n) for n in report)
        lines = [f"{'phase':<{width}}  {'seconds':>9}  {'share':>6}  calls"]
        for name, seconds in report.items():
            share = seconds / total if total > 0 else 0.0
            lines.append(
                f"{name:<{width}}  {seconds:>9.3f}  {share:>5.1%}  "
                f"{self._counts.get(name, 0)}"
            )
        lines.append(f"{'total':<{width}}  {total:>9.3f}")
        return "\n".join(lines)


#: shared no-op timer for call sites running without an ObsContext
NULL_PHASE_TIMER = PhaseTimer(enabled=False)


class Heartbeat:
    """Periodic progress lines to one configurable log file.

    Each :meth:`beat` appends ``[+<elapsed>s] message (done/total)`` to
    the configured path (or stream). ``min_interval`` rate-limits
    beats so per-item call sites can beat unconditionally. Disabled
    instances (no path, no stream) do nothing — the default for
    library code, so only explicit opt-in (CLI flag or the
    ``ZCACHE_PROGRESS_LOG`` environment variable) ever writes a file.
    """

    def __init__(
        self,
        path: Optional[Union[str, Path]] = None,
        stream: Optional[IO[str]] = None,
        min_interval: float = 0.0,
    ) -> None:
        self.path = Path(path) if path is not None else None
        self.stream = stream
        self.min_interval = min_interval
        self.enabled = self.path is not None or self.stream is not None
        if self.path is not None:
            # Fail fast on an unwritable location (matching the JSONL
            # sink, which mkdirs in its constructor) rather than
            # surfacing it at the first rate-limit-passing beat deep
            # into a sweep. ``beat`` keeps its own mkdir: the directory
            # can be removed between construction and use.
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self.beats = 0
        self._start = time.perf_counter() if self.enabled else 0.0
        self._last = -float("inf")

    @classmethod
    def from_env(cls, min_interval: float = 0.0) -> "Heartbeat":
        """A heartbeat honouring ``ZCACHE_PROGRESS_LOG`` (else disabled)."""
        path = os.environ.get(PROGRESS_LOG_ENV)
        return cls(path=path or None, min_interval=min_interval)

    def beat(
        self,
        message: str,
        done: Optional[int] = None,
        total: Optional[int] = None,
    ) -> None:
        """Append one progress line (rate-limited by ``min_interval``)."""
        if not self.enabled:
            return
        now = time.perf_counter()
        if now - self._last < self.min_interval:
            return
        self._last = now
        line = f"[+{now - self._start:8.1f}s] {message}"
        if done is not None and total is not None:
            line += f" ({done}/{total})"
        self.beats += 1
        if self.stream is not None:
            self.stream.write(line + "\n")
            self.stream.flush()
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as f:
                f.write(line + "\n")


#: shared disabled heartbeat for call sites running without one
NULL_HEARTBEAT = Heartbeat()
