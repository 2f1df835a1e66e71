"""Views (paper, Section 2.1).

The *view* of processor ``p`` in history ``pi`` is the concatenation of the
sequences of steps of ``pi`` in real-time order, **with the real times of
occurrence erased**.  Views keep clock times, states, interrupt events and
outputs -- everything a processor itself can observe.

Two histories are equivalent iff they induce the same view; two executions
are equivalent iff all component histories are.  Correction functions are,
by definition, functions of views only (Claim 3.1), which is what makes the
shifting lower-bound argument work: an adversary may move a processor in
real time without the processor noticing.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro._types import ProcessorId, Time
from repro.model.events import (
    MessageReceiveEvent,
    describe_event,
)
from repro.model.steps import History, Step


#: ``(send uids, send clocks, receive uids, receive clocks)`` of one view.
Columns = Tuple[List[int], List[Time], List[int], List[Time]]


@dataclass(frozen=True, init=False)
class View:
    """The observable part of one processor's history.

    ``steps`` preserves order but not real times; equality of two views is
    plain tuple equality of the steps (states, clock times, events).
    The message columns (:attr:`columns`) are derived from ``steps`` once,
    at construction; they take no part in equality, hashing or ``repr``.
    """

    processor: ProcessorId
    steps: Tuple[Step, ...]

    def __init__(self, processor: ProcessorId, steps: Tuple[Step, ...]):
        # The one step walk Lemma 6.1 needs, done once here so every
        # match over this view reads plain lists.  Plain lists and a
        # written-out __init__ (no __post_init__ call) keep a fresh view
        # set -- a campaign cell, a replay-audit cut -- as cheap as the
        # walk the matcher used to do itself.
        send_uids, send_clocks, receive_uids, receive_clocks = [], [], [], []
        for step in steps:
            if step.sends:
                clock = step.clock_time
                for event in step.sends:
                    send_uids.append(event.message.uid)
                    send_clocks.append(clock)
            interrupt = step.interrupt
            if isinstance(interrupt, MessageReceiveEvent):
                receive_uids.append(interrupt.message.uid)
                receive_clocks.append(step.clock_time)
        set_attribute = object.__setattr__  # frozen
        set_attribute(self, "processor", processor)
        set_attribute(self, "steps", steps)
        set_attribute(
            self, "_columns", (send_uids, send_clocks, receive_uids, receive_clocks)
        )

    @staticmethod
    def of(history: History) -> "View":
        """Extract the view of ``history`` (drop real times, keep order)."""
        return View(history.processor, tuple([ts.step for ts in history.steps]))

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def columns(self) -> Columns:
        """``(send uids, send clocks, receive uids, receive clocks)``: the
        ``(uid, clock)`` of every send and every receive, in step order,
        repeats kept.  Shared, not copied: read them, never mutate."""
        return self._columns

    # ------------------------------------------------------------------
    # Observable message timing.  These are what Lemma 6.1 relies on: the
    # clock times of sends and receives are part of the view, so estimated
    # delays d~(m) = recv_clock - send_clock are computable from views.
    # ------------------------------------------------------------------

    def send_clock_times(self) -> Dict[int, Time]:
        """Map ``message uid -> clock time at which this processor sent it``.

        A uid sent more than once keeps its *last* send time.
        """
        uids, clocks, _, _ = self._columns
        return dict(zip(uids, clocks))

    def receive_clock_times(self) -> Dict[int, Time]:
        """Map ``message uid -> clock time at which this processor received it``.

        A uid received more than once (duplicate delivery -- a delivery
        system fault, see :mod:`repro.faults`) keeps its *first* receive
        time: the first delivery is the message's authentic transit
        sample, later copies are retransmission noise, and first-wins
        keeps the view-level statistic consistent with
        :meth:`repro.model.execution.Execution.message_records`.
        """
        _, _, uids, clocks = self._columns
        # Keys in first-receive order; filling them last-to-first leaves
        # each uid's first clock.
        out: Dict[int, Time] = dict.fromkeys(uids)
        out.update(zip(reversed(uids), reversed(clocks)))
        return out

    def duplicate_receive_uids(self) -> Tuple[int, ...]:
        """Uids delivered to this processor more than once, in view order."""
        _, _, uids, _ = self._columns
        counts = Counter(uids)
        return tuple(uid for uid, n in counts.items() if n > 1)

    def received_messages(self):
        """Messages received, in view order."""
        return tuple(
            step.interrupt.message
            for step in self.steps
            if isinstance(step.interrupt, MessageReceiveEvent)
        )

    def sent_messages(self):
        """Messages sent, in view order."""
        return tuple(
            ev.message for step in self.steps for ev in step.sends
        )

    def __str__(self) -> str:
        lines = [f"view({self.processor!r}):"]
        for step in self.steps:
            outputs = [describe_event(ev) for ev in step.sends]
            outputs += [describe_event(ev) for ev in step.timer_sets]
            suffix = f" -> {', '.join(outputs)}" if outputs else ""
            lines.append(
                f"  T={step.clock_time:g} {describe_event(step.interrupt)}{suffix}"
            )
        return "\n".join(lines)


def views_equal(a: View, b: View) -> bool:
    """Whether two views are identical (the histories are *equivalent*)."""
    return a.processor == b.processor and a.steps == b.steps


__all__ = ["Columns", "View", "views_equal"]
