"""Steps and histories (paper, Section 2.1).

A *step* of processor ``p`` is a tuple ``(s, T, i, s', M, TS)`` where ``s``
and ``s'`` are automaton states, ``T`` is a clock time, ``i`` is an
interrupt event, ``M`` is a set of message-send events and ``TS`` is a set
of timer-set events produced by the transition function.

A *history* maps each real time to a finite sequence of steps, subject to
the six well-formedness conditions of the paper (validated by
:meth:`History.validate`).  Histories are stored sparsely as a sorted list
of ``(real_time, step)`` pairs.

The crucial operation is :func:`shift`: ``shift(pi, s)`` executes exactly
the same steps ``s`` real-time units *earlier* (``pi'(t) = pi(t + s)``), so
the start time moves from ``S`` to ``S - s`` while the view -- which only
records clock times -- is unchanged (Lemma 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, List, Tuple

from repro._types import ProcessorId, Time
from repro.model.events import (
    Event,
    InterruptEvent,
    MessageReceiveEvent,
    MessageSendEvent,
    StartEvent,
    TimerEvent,
    TimerSetEvent,
)


class ModelError(ValueError):
    """Raised when a history or execution violates the formal model."""


@dataclass(frozen=True, init=False)
class Step:
    """One application of the transition function.

    ``clock_time`` is the processor's clock reading when the interrupt
    fired; by history condition 4 it always equals ``real_time - S`` where
    ``S`` is the processor's start (real) time.
    """

    old_state: Any
    clock_time: Time
    interrupt: Event
    new_state: Any
    sends: Tuple[MessageSendEvent, ...] = ()
    timer_sets: Tuple[TimerSetEvent, ...] = ()

    def __init__(
        self,
        old_state: Any,
        clock_time: Time,
        interrupt: Event,
        new_state: Any,
        sends: Tuple[MessageSendEvent, ...] = (),
        timer_sets: Tuple[TimerSetEvent, ...] = (),
    ) -> None:
        if not isinstance(interrupt, InterruptEvent):
            raise ModelError(
                f"step interrupt must be a start/receive/timer event, "
                f"got {interrupt!r}"
            )
        # Written out (no __post_init__ call): the simulator builds one
        # step per event.
        set_attribute = object.__setattr__  # frozen
        set_attribute(self, "old_state", old_state)
        set_attribute(self, "clock_time", clock_time)
        set_attribute(self, "interrupt", interrupt)
        set_attribute(self, "new_state", new_state)
        set_attribute(self, "sends", sends)
        set_attribute(self, "timer_sets", timer_sets)

    def sent_messages(self):
        """Messages emitted by this step, in emission order."""
        return tuple(ev.message for ev in self.sends)


@dataclass(frozen=True)
class TimedStep:
    """A step together with the real time at which it occurred.

    Real times are the part of an execution invisible to processors; they
    exist only for the outside observer (and the evaluation harness).
    """

    real_time: Time
    step: Step


@dataclass(frozen=True)
class History:
    """The complete activity of one processor in one execution.

    ``steps`` is sorted by real time (stable for equal times, preserving
    the per-time sequence order required by the model).
    """

    processor: ProcessorId
    steps: Tuple[TimedStep, ...] = ()

    @staticmethod
    def from_steps(processor: ProcessorId, steps: Iterable[TimedStep]) -> "History":
        """Build a history, sorting steps by real time (stable)."""
        ordered = tuple(sorted(steps, key=lambda ts: ts.real_time))
        return History(processor=processor, steps=ordered)

    @property
    def start_time(self) -> Time:
        """``S_pi``: the real time of the start event (condition 2)."""
        if not self.steps:
            raise ModelError(f"history of {self.processor!r} is empty")
        first = self.steps[0]
        if not isinstance(first.step.interrupt, StartEvent):
            raise ModelError(
                f"history of {self.processor!r} does not begin with a start event"
            )
        return first.real_time

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[TimedStep]:
        return iter(self.steps)

    def steps_at(self, real_time: Time) -> Tuple[TimedStep, ...]:
        """All steps occurring at exactly ``real_time`` (may be empty)."""
        return tuple(ts for ts in self.steps if ts.real_time == real_time)

    # ------------------------------------------------------------------
    # Derived event streams
    # ------------------------------------------------------------------

    def sends(self) -> List[Tuple[Time, MessageSendEvent]]:
        """All ``(real_time, send_event)`` pairs in real-time order."""
        out: List[Tuple[Time, MessageSendEvent]] = []
        for ts in self.steps:
            for ev in ts.step.sends:
                out.append((ts.real_time, ev))
        return out

    def receives(self) -> List[Tuple[Time, MessageReceiveEvent]]:
        """All ``(real_time, receive_event)`` pairs in real-time order."""
        return [
            (ts.real_time, ts.step.interrupt)
            for ts in self.steps
            if isinstance(ts.step.interrupt, MessageReceiveEvent)
        ]

    def send_real_time(self, message_uid: int) -> Time:
        """Real time at which the message with ``message_uid`` was sent."""
        for ts in self.steps:
            for ev in ts.step.sends:
                if ev.message.uid == message_uid:
                    return ts.real_time
        raise KeyError(f"message {message_uid} not sent in this history")

    def receive_real_time(self, message_uid: int) -> Time:
        """Real time at which the message with ``message_uid`` was received."""
        for ts in self.steps:
            iv = ts.step.interrupt
            if isinstance(iv, MessageReceiveEvent) and iv.message.uid == message_uid:
                return ts.real_time
        raise KeyError(f"message {message_uid} not received in this history")

    # ------------------------------------------------------------------
    # Well-formedness (the six conditions of Section 2.1)
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check the six history conditions; raise :class:`ModelError` if violated.

        Condition 1 (local finiteness) holds trivially because ``steps`` is
        a finite tuple.  One pass over the steps checks conditions 3-6.
        When several are violated, the error raised is the one of the
        lowest-numbered condition, and within it the first offending step
        (condition 5: the first offending real time, in order of first
        appearance).
        """
        steps = self.steps
        if not steps:
            raise ModelError(f"history of {self.processor!r} is empty")

        # Condition 2: first step is a start event from the initial state.
        first = steps[0]
        if not isinstance(first.step.interrupt, StartEvent):
            raise ModelError("first step must be a start event")
        start = first.real_time

        prev_state = first.step.new_state
        chained = False
        clock_error = None  # condition 4: the first mismatching step
        # Condition 5, per real time in order of first appearance: how
        # many timer events, and whether the last step is one.
        instants: dict = {}
        set_times = set()
        fired = []
        for ts in steps:
            t = ts.real_time
            step = ts.step
            interrupt = step.interrupt
            # Condition 3: no other start events, states chain correctly.
            if chained:
                if isinstance(interrupt, StartEvent):
                    raise ModelError("multiple start events in one history")
                if step.old_state != prev_state:
                    raise ModelError(
                        f"state mismatch at real time {t}: "
                        f"{step.old_state!r} != {prev_state!r}"
                    )
                prev_state = step.new_state
            chained = True
            # Condition 4: clock time of every step equals real time minus S.
            if clock_error is None and abs(step.clock_time - (t - start)) > 1e-9:
                clock_error = ts
            # Condition 5: at most one timer event per real time, ordered last.
            is_timer = isinstance(interrupt, TimerEvent)
            instant = instants.get(t)
            if instant is None:
                instants[t] = [int(is_timer), is_timer]
            else:
                instant[0] += is_timer
                instant[1] = is_timer
            # Condition 6 (checked below, once every set is known).
            for ev in step.timer_sets:
                set_times.add(round(ev.clock_time, 9))
            if is_timer:
                fired.append(interrupt)

        if clock_error is not None:
            raise ModelError(
                f"clock time {clock_error.step.clock_time} != real "
                f"{clock_error.real_time} - start {start}"
            )
        if fired:
            for real_time, (timers, timer_last) in instants.items():
                if timers > 1:
                    raise ModelError(f"two timer events at real time {real_time}")
                if timers and not timer_last:
                    raise ModelError(
                        f"timer event not last among steps at real time "
                        f"{real_time}"
                    )

        # Condition 6: a timer fires at clock T iff a timer was set for T.
        for iv in fired:
            if round(iv.clock_time, 9) not in set_times:
                raise ModelError(
                    f"timer for clock time {iv.clock_time} fired but was never set"
                )


def shift_history(history: History, s: Time) -> History:
    """Return ``shift(pi, s)``: the same steps, each ``s`` earlier in real time.

    Following the paper, ``pi'(t) = pi(t + s)``: a step that happened at
    real time ``t`` in ``pi`` happens at ``t - s`` in the shifted history.
    Clock times (and hence the view) are untouched, and the start time
    becomes ``S - s`` (Lemma 4.1).
    """
    shifted = tuple(
        TimedStep(real_time=ts.real_time - s, step=ts.step) for ts in history.steps
    )
    return History(processor=history.processor, steps=shifted)


__all__ = ["ModelError", "Step", "TimedStep", "History", "shift_history"]
