"""ZScope profiling: the sweep heartbeat.

"Is the sweep still alive?" during long experiment runs:
:class:`Heartbeat` appends one progress line per beat to a single
configurable log file — replacing the ad-hoc ``results/progress*.log``
sprawl. It is disabled unless constructed with a path (or the
``ZCACHE_PROGRESS_LOG`` environment variable names one), so tests
and library use never write files implicitly. ("Where did the
wall-clock go?" is answered by spans: :mod:`repro.obs.spans` records
them, :func:`repro.obs.timeline.phase_stats` totals them per name.)

Host-clock reads are deliberate and legitimate here: they measure the
*simulator process*, never simulated time. The obs package is exempt
from the ZS005 no-host-clock rule for exactly this reason, mirroring
the analysis package's exemption.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import IO, Optional, Union

#: environment variable naming the default heartbeat log path
PROGRESS_LOG_ENV = "ZCACHE_PROGRESS_LOG"


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
            # Fail fast on an unwritable location rather than
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
