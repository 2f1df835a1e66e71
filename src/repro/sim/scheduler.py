"""Discrete-event scheduler for the network simulator.

A classic heap-based future-event list.  Entries are ordered by
``(real_time, priority, sequence)``:

* ``priority`` implements the model's intra-instant ordering -- start
  events before message receives before timer events (history condition 5
  requires the timer last);
* ``sequence`` is a monotone tiebreaker that keeps simultaneous
  same-priority events in schedule order and makes runs deterministic.

The heap holds plain tuples ``(real_time, priority, sequence, entry)``,
so ``heapq`` orders them with C tuple comparisons.  ``sequence`` is
unique, so a comparison never reaches the fourth slot: the
:class:`_Entry` handle (payload plus cancel/pop flags) is never compared
and the payload may be any object, comparable or not.

A ``clock_listener`` callback, when given, is invoked with the new
simulated time every time :meth:`EventScheduler.pop` advances it -- the
hook the simulator uses to keep the recorder's ``sim_time`` current so
spans and telemetry events carry simulated-time attributes.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

from repro._types import Time

#: Intra-instant priorities (see history condition 5).
PRIORITY_START = 0
PRIORITY_RECEIVE = 1
PRIORITY_TIMER = 2


class _Entry:
    """The cancellable handle of one scheduled event."""

    __slots__ = ("real_time", "payload", "cancelled", "popped")

    def __init__(self, real_time: Time, payload: Any) -> None:
        self.real_time = real_time
        self.payload = payload
        self.cancelled = False
        self.popped = False


class EventScheduler:
    """Priority queue of timed simulation events."""

    def __init__(
        self, clock_listener: Optional[Callable[[Time], None]] = None
    ) -> None:
        self._heap: List[Tuple[Time, int, int, _Entry]] = []
        self._counter = itertools.count()
        self._now: Time = float("-inf")
        self._processed = 0
        self._peak_depth = 0
        self._clock_listener = clock_listener

    @property
    def now(self) -> Time:
        """Real time of the most recently popped event."""
        return self._now

    @property
    def processed(self) -> int:
        """How many events have been popped so far."""
        return self._processed

    @property
    def peak_depth(self) -> int:
        """High-water mark of the queue (cancelled entries included)."""
        return self._peak_depth

    @property
    def raw_depth(self) -> int:
        """Current heap size, cancelled entries included (O(1)).

        ``len(scheduler)`` counts only live entries but scans the heap;
        this is the cheap reading the simulator samples into the
        ``sim.scheduler.queue_depth`` histogram on instrumented runs.
        """
        return len(self._heap)

    def schedule(self, real_time: Time, priority: int, payload: Any) -> _Entry:
        """Enqueue ``payload`` at ``real_time``; returns a cancellable handle.

        Scheduling strictly in the past of the current instant is a logic
        error (the simulator never needs it and it would corrupt
        causality), so it raises.
        """
        if real_time < self._now - 1e-12:
            raise ValueError(
                f"cannot schedule at {real_time} before current time {self._now}"
            )
        entry = _Entry(real_time, payload)
        heap = self._heap
        heapq.heappush(heap, (real_time, priority, next(self._counter), entry))
        if len(heap) > self._peak_depth:
            self._peak_depth = len(heap)
        return entry

    def cancel(self, entry: _Entry) -> bool:
        """Mark an entry dead; it will be skipped when popped.

        Safe to call at any time: cancelling an entry that was already
        popped (delivered) or already cancelled is a no-op.  Returns
        ``True`` only when this call actually prevented a delivery --
        the caller can tell "cancelled in time" from "too late" without
        inspecting scheduler internals.  Crash/restart fault handling
        relies on this being idempotent (a crash window may try to
        cancel the same timer from several code paths).
        """
        if entry.popped or entry.cancelled:
            return False
        entry.cancelled = True
        return True

    def pop(self) -> Optional[_Entry]:
        """Remove and return the earliest live entry, or ``None`` if empty."""
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)[3]
            if entry.cancelled:
                entry.popped = True
                continue
            entry.popped = True
            self._now = entry.real_time
            self._processed += 1
            if self._clock_listener is not None:
                self._clock_listener(entry.real_time)
            return entry
        return None

    def __bool__(self) -> bool:
        return any(not item[3].cancelled for item in self._heap)

    def __len__(self) -> int:
        return sum(1 for item in self._heap if not item[3].cancelled)


__all__ = [
    "EventScheduler",
    "PRIORITY_START",
    "PRIORITY_RECEIVE",
    "PRIORITY_TIMER",
]
