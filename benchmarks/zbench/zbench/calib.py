"""The calibration loop that makes host times comparable across runs.

On the 2-CPU sandbox the speed of the host drifts by up to 1.7x for
seconds or minutes at a time (measured: a fixed loop's time tracks the
workload's, CPU time tracks wall time, so it is the host slowing down,
not the process waiting). A plain median over a 12 s run therefore moves
by 20-30% between runs of the same code. So every timed sample of an
end-to-end time is divided by this loop's time measured right next to
it, and quoted in *calibrated seconds*: the seconds it would have taken
on a host where the loop runs at ``CALIB_REF_NS`` per iteration. The raw
host seconds are kept alongside in the result files, and the run's
calibration is reported as ``bench.calib_ns``.

The loop is pure-Python dict/tuple/list churn, the flavour of work the
simulator and the service do, so it slows down as they do (a bare
arithmetic loop slows down less than they do under memory contention).
It imports nothing heavy: ``run.py`` calibrates before and after the
imports of :mod:`repro` to quote ``setup_s`` the same way.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Iterator

ITERATIONS = 60_000
#: ns per iteration on the reference host calibrated seconds are quoted for
CALIB_REF_NS = 250.0


def calibrate() -> float:
    """Run the loop once (~15 ms); returns ns per iteration."""
    d: dict[int, tuple[int, int]] = {}
    lst = [0] * 64
    start = perf_counter()
    for i in range(ITERATIONS):
        k = (i * 2654435761) & 0xFFF
        d[k] = (k, i)
        lst[i & 63] += d.get(k ^ 1, (0, 0))[1] & 1
    return (perf_counter() - start) / ITERATIONS * 1e9


class Clock:
    """Times consecutive segments, raw and calibrated.

    Each segment is scaled by the mean of the calibrations before and
    after it. ``calibrated=False`` (the traced pass, whose numbers are
    raw host times) skips the loop, and ``cal_s`` equals ``raw_s``.
    """

    def __init__(self, calibrated: bool = True) -> None:
        self.calibrated = calibrated
        #: per segment, in this host's seconds and in calibrated seconds
        self.raw: list[float] = []
        self.cal: list[float] = []
        self.samples_ns: list[float] = []
        self._last = self._sample() if calibrated else CALIB_REF_NS

    @property
    def raw_s(self) -> float:
        return sum(self.raw)

    @property
    def cal_s(self) -> float:
        return sum(self.cal)

    def _sample(self) -> float:
        ns = calibrate()
        self.samples_ns.append(ns)
        return ns

    @contextmanager
    def segment(self) -> Iterator[None]:
        """Time the body as one segment."""
        start = perf_counter()
        yield
        elapsed = perf_counter() - start
        now = self._sample() if self.calibrated else CALIB_REF_NS
        self.raw.append(elapsed)
        self.cal.append(elapsed * CALIB_REF_NS / ((self._last + now) / 2))
        self._last = now
