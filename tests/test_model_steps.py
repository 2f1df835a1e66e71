"""Unit tests for steps and histories (repro.model.steps).

The six history conditions of Section 2.1 each get a violation test, and
Lemma 4.1 (shift preserves history-hood, moves the start time) is checked
directly.
"""

import pytest

from repro.model.events import (
    Message,
    MessageReceiveEvent,
    MessageSendEvent,
    StartEvent,
    TimerEvent,
    TimerSetEvent,
)
from repro.model.steps import History, ModelError, Step, TimedStep, shift_history
from repro.model.views import View

from conftest import build_history


def simple_history(start: float = 5.0) -> History:
    return build_history(
        me=0,
        start=start,
        sends=[(10.0, Message(sender=0, receiver=1))],
        receives=[(12.0, Message(sender=1, receiver=0))],
    )


class TestStep:
    def test_rejects_non_interrupt(self):
        m = Message(sender=0, receiver=1)
        with pytest.raises(ModelError):
            Step(
                old_state=0,
                clock_time=0.0,
                interrupt=MessageSendEvent(message=m),
                new_state=1,
            )

    def test_sent_messages(self):
        m1 = Message(sender=0, receiver=1)
        m2 = Message(sender=0, receiver=2)
        step = Step(
            old_state=0,
            clock_time=1.0,
            interrupt=TimerEvent(clock_time=1.0),
            new_state=1,
            sends=(MessageSendEvent(message=m1), MessageSendEvent(message=m2)),
        )
        assert step.sent_messages() == (m1, m2)


class TestHistoryBasics:
    def test_start_time(self):
        assert simple_history(start=5.0).start_time == 5.0

    def test_empty_history_has_no_start(self):
        with pytest.raises(ModelError):
            History(processor=0).start_time

    def test_validate_passes(self):
        simple_history().validate()

    def test_sends_and_receives_in_order(self):
        h = simple_history(start=5.0)
        sends = h.sends()
        receives = h.receives()
        assert len(sends) == 1 and len(receives) == 1
        assert sends[0][0] == 15.0  # real time = start + clock
        assert receives[0][0] == 17.0

    def test_send_and_receive_real_time_lookup(self):
        h = simple_history(start=5.0)
        sent = h.sends()[0][1].message
        received = h.receives()[0][1].message
        assert h.send_real_time(sent.uid) == 15.0
        assert h.receive_real_time(received.uid) == 17.0
        with pytest.raises(KeyError):
            h.send_real_time(999999)
        with pytest.raises(KeyError):
            h.receive_real_time(999999)

    def test_steps_at(self):
        h = simple_history(start=5.0)
        assert len(h.steps_at(5.0)) == 1
        assert h.steps_at(99.0) == ()

    def test_from_steps_sorts(self):
        h = simple_history()
        shuffled = History.from_steps(0, reversed(h.steps))
        assert [ts.real_time for ts in shuffled] == [
            ts.real_time for ts in h.steps
        ]


class TestHistoryConditions:
    """One violation test per condition of Section 2.1."""

    def test_condition2_first_step_must_be_start(self):
        m = Message(sender=1, receiver=0)
        bad = History(
            processor=0,
            steps=(
                TimedStep(
                    real_time=1.0,
                    step=Step(
                        old_state=0,
                        clock_time=0.0,
                        interrupt=MessageReceiveEvent(message=m),
                        new_state=1,
                    ),
                ),
            ),
        )
        with pytest.raises(ModelError):
            bad.validate()

    def test_condition3_no_second_start(self):
        h = simple_history()
        extra = TimedStep(
            real_time=100.0,
            step=Step(
                old_state=h.steps[-1].step.new_state,
                clock_time=95.0,
                interrupt=StartEvent(),
                new_state=99,
            ),
        )
        bad = History(processor=0, steps=h.steps + (extra,))
        with pytest.raises(ModelError, match="start"):
            bad.validate()

    def test_condition3_states_must_chain(self):
        h = simple_history()
        broken_step = Step(
            old_state="wrong",
            clock_time=h.steps[1].step.clock_time,
            interrupt=h.steps[1].step.interrupt,
            new_state=h.steps[1].step.new_state,
            sends=h.steps[1].step.sends,
            timer_sets=h.steps[1].step.timer_sets,
        )
        bad = History(
            processor=0,
            steps=(
                h.steps[0],
                TimedStep(real_time=h.steps[1].real_time, step=broken_step),
            )
            + h.steps[2:],
        )
        with pytest.raises(ModelError, match="state"):
            bad.validate()

    def test_condition4_clock_equals_real_minus_start(self):
        h = simple_history()
        wrong = Step(
            old_state=h.steps[1].step.old_state,
            clock_time=h.steps[1].step.clock_time + 1.0,
            interrupt=h.steps[1].step.interrupt,
            new_state=h.steps[1].step.new_state,
            sends=h.steps[1].step.sends,
            timer_sets=h.steps[1].step.timer_sets,
        )
        bad = History(
            processor=0,
            steps=(h.steps[0], TimedStep(h.steps[1].real_time, wrong))
            + h.steps[2:],
        )
        with pytest.raises(ModelError, match="clock"):
            bad.validate()

    def test_condition5_at_most_one_timer_per_instant(self):
        start = TimedStep(
            real_time=0.0,
            step=Step(
                old_state=0,
                clock_time=0.0,
                interrupt=StartEvent(),
                new_state=1,
                timer_sets=(TimerSetEvent(5.0),),
            ),
        )
        t1 = TimedStep(
            real_time=5.0,
            step=Step(
                old_state=1,
                clock_time=5.0,
                interrupt=TimerEvent(clock_time=5.0),
                new_state=2,
            ),
        )
        t2 = TimedStep(
            real_time=5.0,
            step=Step(
                old_state=2,
                clock_time=5.0,
                interrupt=TimerEvent(clock_time=5.0),
                new_state=3,
            ),
        )
        with pytest.raises(ModelError) as raised:
            History(processor=0, steps=(start, t1, t2)).validate()
        assert str(raised.value) == "two timer events at real time 5.0"

    def test_condition5_timer_ordered_last_within_instant(self):
        m = Message(sender=1, receiver=0)
        start = TimedStep(
            real_time=0.0,
            step=Step(
                old_state=0,
                clock_time=0.0,
                interrupt=StartEvent(),
                new_state=1,
                timer_sets=(TimerSetEvent(5.0),),
            ),
        )
        timer_first = TimedStep(
            real_time=5.0,
            step=Step(
                old_state=1,
                clock_time=5.0,
                interrupt=TimerEvent(clock_time=5.0),
                new_state=2,
            ),
        )
        recv_after = TimedStep(
            real_time=5.0,
            step=Step(
                old_state=2,
                clock_time=5.0,
                interrupt=MessageReceiveEvent(message=m),
                new_state=3,
            ),
        )
        with pytest.raises(ModelError) as raised:
            History(
                processor=0, steps=(start, timer_first, recv_after)
            ).validate()
        assert str(raised.value) == (
            "timer event not last among steps at real time 5.0"
        )

    def test_condition6_timer_must_have_been_set(self):
        start = TimedStep(
            real_time=0.0,
            step=Step(
                old_state=0,
                clock_time=0.0,
                interrupt=StartEvent(),
                new_state=1,
            ),
        )
        phantom = TimedStep(
            real_time=5.0,
            step=Step(
                old_state=1,
                clock_time=5.0,
                interrupt=TimerEvent(clock_time=5.0),
                new_state=2,
            ),
        )
        with pytest.raises(ModelError, match="never set"):
            History(processor=0, steps=(start, phantom)).validate()


class TestShiftHistory:
    """Lemma 4.1: shift(pi, s) is a history with start time S - s."""

    def test_shift_moves_start_time(self):
        h = simple_history(start=5.0)
        assert shift_history(h, 2.0).start_time == 3.0
        assert shift_history(h, -4.0).start_time == 9.0

    def test_shift_preserves_validity(self):
        shift_history(simple_history(), 7.5).validate()

    def test_shift_preserves_view(self):
        h = simple_history()
        assert View.of(shift_history(h, 123.0)) == View.of(h)

    def test_shift_is_invertible(self):
        h = simple_history()
        assert shift_history(shift_history(h, 3.3), -3.3) == h

    def test_zero_shift_is_identity(self):
        h = simple_history()
        assert shift_history(h, 0.0) == h

    def test_shifts_compose_additively(self):
        h = simple_history()
        assert shift_history(shift_history(h, 1.5), 2.5) == shift_history(
            h, 4.0
        )
