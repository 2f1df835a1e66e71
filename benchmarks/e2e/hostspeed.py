"""Host speed, measured with a fixed pure-Python task between timed work.

The small virtual machines this benchmark is run on share their CPUs
with other tenants, and their speed drifts: on the 2-vCPU calibration
host one pure-Python loop took 1.5 ms in quiet stretches and 2.3 ms in
busy ones, which alternated every few seconds, so ten runs of one commit
spread by 0.16 to 0.35 (quartile distance over median) in wall time.  The benchmark therefore times a
fixed task of its own -- :func:`reference_task`, which no change to
``repro`` can make faster or slower -- next to the work it measures, and
scales every gated time by ``REFERENCE_S / (the task's current time)``:
the time the work would have taken on a host that runs the task in
``REFERENCE_S``.  A change that speeds ``repro`` up lowers the scaled
time just as it lowers the wall time; a busy neighbour raises both the
work and the task, and largely cancels out.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Callable, List, TypeVar

T = TypeVar("T")

#: The reference task's time on the calibration host in a quiet stretch:
#: scaled times read as wall times on a host that runs it this fast.
REFERENCE_S = 1.5e-3
#: The current speed is the median of this many latest probes, because a
#: single 1.5 ms probe jitters by about 10%.
WINDOW = 3
#: :meth:`HostSpeed.maybe_probe` probes at most this often, which costs
#: under 1% of the measured time.
INTERVAL_S = 0.2


def reference_task() -> None:
    """Fixed pure-Python work of about 1.5 ms; touches no ``repro`` code."""
    total = 0
    for i in range(20_000):
        total += i * i % 7


class HostSpeed:
    """Probes of :func:`reference_task` and the scale they imply."""

    def __init__(self) -> None:
        #: seconds of every probe, in order.
        self.samples: List[float] = []
        self._last = -math.inf

    def probe(self, count: int = 1) -> None:
        """Time :func:`reference_task` ``count`` times."""
        for _ in range(count):
            start = time.perf_counter()
            reference_task()
            self._last = time.perf_counter()
            self.samples.append(self._last - start)

    def maybe_probe(self) -> None:
        """Probe unless the last probe is under ``INTERVAL_S`` old."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.probe()

    def scale(self, window: int = WINDOW) -> float:
        """``REFERENCE_S`` over the median of the latest ``window`` probes."""
        if not self.samples:
            self.probe(window)
        return REFERENCE_S / statistics.median(self.samples[-window:])

    def around(self, work: Callable[[], T], window: int = WINDOW):
        """Run ``work()`` between two sets of probes; (value, seconds, scale).

        For work too long or too parallel to probe during: the scale is
        that of the ``window`` probes before it and the ``window`` after.
        """
        self.probe(window)
        start = time.perf_counter()
        value = work()
        seconds = time.perf_counter() - start
        self.probe(window)
        return value, seconds, self.scale(2 * window)


#: One workload runs per process, so the process has one host speed.
HOST = HostSpeed()

__all__ = ["HOST", "INTERVAL_S", "REFERENCE_S", "WINDOW", "HostSpeed", "reference_task"]
