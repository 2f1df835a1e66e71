"""Unit tests for the event scheduler (repro.sim.scheduler)."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.sim.scheduler import (
    EventScheduler,
    PRIORITY_RECEIVE,
    PRIORITY_START,
    PRIORITY_TIMER,
)


class TestOrdering:
    def test_pops_in_time_order(self):
        s = EventScheduler()
        s.schedule(3.0, PRIORITY_RECEIVE, "c")
        s.schedule(1.0, PRIORITY_RECEIVE, "a")
        s.schedule(2.0, PRIORITY_RECEIVE, "b")
        assert [s.pop().payload for _ in range(3)] == ["a", "b", "c"]

    def test_priority_breaks_time_ties(self):
        s = EventScheduler()
        s.schedule(1.0, PRIORITY_TIMER, "timer")
        s.schedule(1.0, PRIORITY_START, "start")
        s.schedule(1.0, PRIORITY_RECEIVE, "recv")
        assert [s.pop().payload for _ in range(3)] == [
            "start",
            "recv",
            "timer",
        ]

    def test_sequence_breaks_full_ties(self):
        s = EventScheduler()
        for i in range(5):
            s.schedule(1.0, PRIORITY_RECEIVE, i)
        assert [s.pop().payload for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_now_tracks_popped_time(self):
        s = EventScheduler()
        s.schedule(4.5, PRIORITY_RECEIVE, "x")
        s.pop()
        assert s.now == 4.5

    def test_processed_counter(self):
        s = EventScheduler()
        s.schedule(1.0, PRIORITY_RECEIVE, "x")
        s.schedule(2.0, PRIORITY_RECEIVE, "y")
        s.pop()
        s.pop()
        assert s.processed == 2


class TestLifecycle:
    def test_empty_pop_returns_none(self):
        assert EventScheduler().pop() is None

    def test_bool_and_len(self):
        s = EventScheduler()
        assert not s and len(s) == 0
        entry = s.schedule(1.0, PRIORITY_RECEIVE, "x")
        assert s and len(s) == 1
        s.cancel(entry)
        assert not s and len(s) == 0

    def test_cancelled_entries_skipped(self):
        s = EventScheduler()
        doomed = s.schedule(1.0, PRIORITY_RECEIVE, "dead")
        s.schedule(2.0, PRIORITY_RECEIVE, "alive")
        s.cancel(doomed)
        assert s.pop().payload == "alive"
        assert s.pop() is None

    def test_cancel_reports_whether_it_prevented_delivery(self):
        s = EventScheduler()
        entry = s.schedule(1.0, PRIORITY_RECEIVE, "x")
        assert s.cancel(entry) is True

    def test_cancel_twice_is_a_noop(self):
        s = EventScheduler()
        entry = s.schedule(1.0, PRIORITY_RECEIVE, "x")
        assert s.cancel(entry) is True
        assert s.cancel(entry) is False  # second cancel changed nothing
        assert s.pop() is None

    def test_cancel_after_pop_is_a_noop(self):
        s = EventScheduler()
        entry = s.schedule(1.0, PRIORITY_RECEIVE, "x")
        assert s.pop() is entry
        assert s.cancel(entry) is False  # too late: already delivered
        assert entry.cancelled is False  # history is not rewritten

    def test_cancel_after_cancelled_pop_is_a_noop(self):
        s = EventScheduler()
        entry = s.schedule(1.0, PRIORITY_RECEIVE, "x")
        s.schedule(2.0, PRIORITY_RECEIVE, "y")
        s.cancel(entry)
        assert s.pop().payload == "y"  # skips (and retires) the dead entry
        assert s.cancel(entry) is False

    def test_scheduling_in_past_rejected(self):
        s = EventScheduler()
        s.schedule(5.0, PRIORITY_RECEIVE, "x")
        s.pop()
        with pytest.raises(ValueError):
            s.schedule(4.0, PRIORITY_RECEIVE, "late")

    def test_scheduling_at_current_instant_allowed(self):
        s = EventScheduler()
        s.schedule(5.0, PRIORITY_RECEIVE, "x")
        s.pop()
        s.schedule(5.0, PRIORITY_TIMER, "same-instant")
        assert s.pop().payload == "same-instant"


class Incomparable:
    """A payload that fails any ordering or equality comparison."""

    def __init__(self, label):
        self.label = label

    def _refuse(self, other):
        raise AssertionError("the scheduler compared a payload")

    __lt__ = __le__ = __gt__ = __ge__ = __eq__ = _refuse
    __hash__ = object.__hash__


#: One scheduler operation: ("schedule", delay, priority), ("cancel",
#: pick) or ("pop",).
OPERATIONS = st.one_of(
    st.tuples(
        st.just("schedule"),
        st.sampled_from((0.0, 0.0, 0.5, 1.0, 2.0)),
        st.sampled_from((PRIORITY_START, PRIORITY_RECEIVE, PRIORITY_TIMER)),
    ),
    st.tuples(st.just("cancel"), st.integers(0, 50)),
    st.tuples(st.just("pop")),
)


class TestContract:
    """Random schedule/cancel/pop sequences against a sorted reference."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(OPERATIONS, max_size=60))
    def test_pop_order_matches_sorted_reference(self, operations):
        s = EventScheduler()
        handles = []  # (key, handle) of every schedule, in schedule order
        live = {}  # key -> handle: scheduled, neither popped nor cancelled
        order = 0
        for op in operations:
            if op[0] == "schedule":
                now = max(s.now, 0.0)
                key = (now + op[1], op[2], order)
                order += 1
                handle = s.schedule(key[0], key[1], Incomparable(key))
                handles.append((key, handle))
                live[key] = handle
            elif op[0] == "cancel":
                if not handles:
                    continue
                key, handle = handles[op[1] % len(handles)]
                assert s.cancel(handle) is (key in live)
                live.pop(key, None)
                assert handle.cancelled or handle.popped
            else:
                entry = s.pop()
                if not live:
                    assert entry is None
                    continue
                key = min(live)
                assert entry is live.pop(key)
                assert entry.payload.label == key
                assert s.now == key[0]
            assert len(s) == len(live)
            assert bool(s) is bool(live)
        while live:
            key = min(live)
            assert s.pop() is live.pop(key)
        assert s.pop() is None and len(s) == 0 and not s

    def test_incomparable_payloads_at_one_instant(self):
        s = EventScheduler()
        payloads = [Incomparable(i) for i in range(4)]
        for payload in payloads:
            s.schedule(1.0, PRIORITY_RECEIVE, payload)
        assert [s.pop().payload for _ in payloads] == payloads

    def test_len_and_bool_ignore_cancelled_entries(self):
        s = EventScheduler()
        first = s.schedule(1.0, PRIORITY_RECEIVE, "a")
        second = s.schedule(2.0, PRIORITY_RECEIVE, "b")
        s.cancel(second)
        assert len(s) == 1 and s and s.raw_depth == 2
        s.cancel(first)
        assert len(s) == 0 and not s and s.raw_depth == 2
        assert s.pop() is None
