"""One-pass history validation against the four-pass reference.

``History.validate`` checks the six history conditions of Section 2.1 in
one pass.  On any history -- out of real-time order, with several steps
at one instant, with violations of several conditions at once -- it must
pass exactly when :func:`oracles.reference_validate` passes, and
otherwise raise the same :class:`~repro.model.steps.ModelError` message.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.model.events import (
    Message,
    MessageReceiveEvent,
    StartEvent,
    TimerEvent,
    TimerSetEvent,
)
from repro.model.steps import History, ModelError, Step, TimedStep

from oracles import reference_validate

#: Each mutation seeds a violation of one condition (or, for
#: ``shuffle``, ``reverse`` and ``same-instant``, an unusual but legal
#: shape).
MUTATIONS = (
    "not-start-first",  # condition 2
    "second-start",  # condition 3
    "state-break",  # condition 3
    "clock",  # condition 4
    "two-timers",  # condition 5
    "timer-not-last",  # condition 5
    "unset-timer",  # condition 6
    "shuffle",
    "reverse",
    "same-instant",
)


def outcome(check, history):
    """``None`` when ``check`` passes, else its ModelError message."""
    try:
        check(history)
    except ModelError as exc:
        return str(exc)
    return None


def _step(old, clock, interrupt, new, timer_sets=()):
    return Step(old, clock, interrupt, new, (), tuple(timer_sets))


def _retime(step, clock):
    return _step(step.old_state, clock, step.interrupt, step.new_state,
                 step.timer_sets)


def swap_instants(steps, i, j):
    """Swap the instants (real and clock time together) of steps ``i``
    and ``j``, not the steps: states still chain, real times go out of
    order."""
    a, b = steps[i], steps[j]
    steps[i] = TimedStep(b.real_time, _retime(a.step, b.step.clock_time))
    steps[j] = TimedStep(a.real_time, _retime(b.step, a.step.clock_time))
    return steps


def valid_history(start, offsets, timer_flags):
    """A history satisfying all six conditions.

    ``offsets`` are the (sorted) clock times of the steps after the
    start; at each instant at most the last step is a timer, and the
    start step sets every timer that fires.
    """
    kinds = []
    for i, (offset, timer) in enumerate(zip(offsets, timer_flags)):
        last_at_instant = i + 1 == len(offsets) or offsets[i + 1] != offset
        kinds.append("timer" if timer and last_at_instant else "recv")
    fired = [o for o, k in zip(offsets, kinds) if k == "timer"]
    steps = [
        TimedStep(
            start,
            _step(0, 0.0, StartEvent(), 1, (TimerSetEvent(o) for o in fired)),
        )
    ]
    for i, (offset, kind) in enumerate(zip(offsets, kinds)):
        interrupt = (
            TimerEvent(offset)
            if kind == "timer"
            else MessageReceiveEvent(Message(1, 0, None, uid=i))
        )
        steps.append(TimedStep(start + offset, _step(i + 1, offset, interrupt, i + 2)))
    return steps


def mutate(steps, mutation, at):
    """Apply ``mutation`` around position ``at`` (taken modulo the length)."""
    i = at % len(steps)
    ts = steps[i]
    step = ts.step
    if mutation == "not-start-first":
        head = steps[0].step
        steps[0] = TimedStep(
            steps[0].real_time,
            _step(
                head.old_state, head.clock_time,
                MessageReceiveEvent(Message(1, 0, None, uid=99)),
                head.new_state, head.timer_sets,
            ),
        )
    elif mutation == "second-start":
        steps[i] = TimedStep(
            ts.real_time,
            _step(step.old_state, step.clock_time, StartEvent(), step.new_state),
        )
    elif mutation == "state-break":
        steps[i] = TimedStep(
            ts.real_time,
            _step("elsewhere", step.clock_time, step.interrupt, step.new_state,
                  step.timer_sets),
        )
    elif mutation == "clock":
        steps[i] = TimedStep(ts.real_time, _retime(step, step.clock_time + 0.25))
    elif mutation in ("two-timers", "timer-not-last"):
        # A chain-preserving extra step right after ``ts``, at its instant.
        interrupt = (
            TimerEvent(step.clock_time)
            if mutation == "two-timers"
            else MessageReceiveEvent(Message(1, 0, None, uid=98))
        )
        steps.insert(
            i + 1,
            TimedStep(
                ts.real_time,
                _step(step.new_state, step.clock_time, interrupt, step.new_state),
            ),
        )
    elif mutation == "unset-timer":
        steps[i] = TimedStep(
            ts.real_time,
            _step(step.old_state, step.clock_time, TimerEvent(step.clock_time + 0.125),
                  step.new_state, step.timer_sets),
        )
    elif mutation == "shuffle" and i > 0:
        steps = swap_instants(steps, i, 1 + (at * 7 + 3) % (len(steps) - 1))
    elif mutation == "reverse":
        # Instants in reverse order after the start; the steps keep theirs.
        for k in range(1, (len(steps) + 1) // 2):
            steps = swap_instants(steps, k, len(steps) - k)
    elif mutation == "same-instant" and i > 0:
        prev = steps[i - 1]
        steps[i] = TimedStep(prev.real_time, _retime(step, prev.step.clock_time))
    return steps


@st.composite
def histories(draw):
    start = draw(st.sampled_from((0.0, 2.5, -4.0, 10.0)))
    offsets = sorted(
        draw(st.lists(st.sampled_from((0.5, 1.0, 2.0, 3.5)), max_size=9))
    )
    timer_flags = draw(
        st.lists(st.booleans(), min_size=len(offsets), max_size=len(offsets))
    )
    steps = valid_history(start, offsets, timer_flags)
    for mutation, at in draw(
        st.lists(
            st.tuples(st.sampled_from(MUTATIONS), st.integers(0, 30)), max_size=4
        )
    ):
        steps = mutate(steps, mutation, at)
    return History(0, tuple(steps))


@settings(max_examples=600, deadline=None)
@given(histories())
def test_one_pass_validate_matches_reference(history):
    assert outcome(History.validate, history) == outcome(
        reference_validate, history
    )


BASE = valid_history(5.0, (1.0, 1.0, 2.0, 3.0), (False, True, True, False))


@pytest.mark.parametrize(
    "mutation, at, expected",
    [
        ("not-start-first", 0, "first step must be a start event"),
        ("second-start", 3, "multiple start events in one history"),
        ("state-break", 3, "state mismatch at real time 7.0: 'elsewhere' != 3"),
        ("clock", 4, "clock time 3.25 != real 8.0 - start 5.0"),
        ("two-timers", 2, "two timer events at real time 6.0"),
        ("timer-not-last", 2, "timer event not last among steps at real time 6.0"),
        ("unset-timer", 3, "timer for clock time 2.125 fired but was never set"),
    ],
)
def test_each_seeded_violation_names_its_condition(mutation, at, expected):
    history = History(0, tuple(mutate(list(BASE), mutation, at)))
    assert outcome(reference_validate, history) == expected
    assert outcome(History.validate, history) == expected


def test_base_and_legal_shapes_pass():
    assert outcome(History.validate, History(0, tuple(BASE))) is None
    # Out of real-time order but otherwise well formed: legal.
    shuffled = History(0, tuple(swap_instants(list(BASE), 3, 4)))
    assert [ts.real_time for ts in shuffled.steps] == [5.0, 6.0, 6.0, 8.0, 7.0]
    assert outcome(reference_validate, shuffled) is None
    assert outcome(History.validate, shuffled) is None


def test_instant_split_by_disorder_is_one_instant():
    # The steps at 6.0 are not consecutive: the timer among them ends its
    # run of steps but is not last at its instant.
    history = History(0, tuple(swap_instants(list(BASE), 1, 4)))
    assert [
        (ts.real_time, type(ts.step.interrupt).__name__) for ts in history.steps
    ] == [
        (5.0, "StartEvent"),
        (8.0, "MessageReceiveEvent"),
        (6.0, "TimerEvent"),
        (7.0, "TimerEvent"),
        (6.0, "MessageReceiveEvent"),
    ]
    expected = "timer event not last among steps at real time 6.0"
    assert outcome(reference_validate, history) == expected
    assert outcome(History.validate, history) == expected


def test_lower_condition_wins_when_several_are_violated():
    # A clock error (4) on an early step and a state break (3) on a late
    # one: condition 3 is reported, as the reference's pass order does.
    steps = mutate(list(BASE), "clock", 1)
    steps = mutate(steps, "state-break", 4)
    history = History(0, tuple(steps))
    expected = "state mismatch at real time 8.0: 'elsewhere' != 4"
    assert outcome(reference_validate, history) == expected
    assert outcome(History.validate, history) == expected


def test_first_appearing_instant_is_reported_first():
    # Condition 5 fails at 7.0 (a receive after the timer) and at 6.0
    # (two timers); 7.0 appears first, so it is the one reported.
    def at(real_time, old, interrupt, timer_sets=()):
        step = _step(old, real_time - 5.0, interrupt, old + 1, timer_sets)
        return TimedStep(real_time, step)

    history = History(0, (
        at(5.0, 0, StartEvent(), (TimerSetEvent(1.0), TimerSetEvent(2.0))),
        at(7.0, 1, TimerEvent(2.0)),
        at(7.0, 2, MessageReceiveEvent(Message(1, 0, None, uid=0))),
        at(6.0, 3, TimerEvent(1.0)),
        at(6.0, 4, TimerEvent(1.0)),
    ))
    expected = "timer event not last among steps at real time 7.0"
    assert outcome(reference_validate, history) == expected
    assert outcome(History.validate, history) == expected
