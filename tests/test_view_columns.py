"""A view's message columns (Lemma 6.1's ``(uid, clock)`` pairs).

``View`` walks its steps once, at construction, and keeps the uid and
clock of every send and every receive.  The columns must equal a
per-step walk, be invisible to equality, hashing, ``repr``, pickling and
``dataclasses.replace``, and be all the uid matcher reads: matching a
set of views twice never walks a step again.
"""

import dataclasses
import pickle
import random

import pytest

from repro.core.estimates import local_shift_estimates
from repro.faults import DuplicateDelivery, FaultPlan, ProcessorCrash
from repro.graphs.topology import random_connected, ring
from repro.model.events import (
    Message,
    MessageReceiveEvent,
    MessageSendEvent,
    TimerEvent,
)
from repro.model.execution import shift_execution
from repro.model.steps import Step
from repro.model.views import View
from repro.workloads.scenarios import bounded_uniform, heterogeneous


def oracle_columns(steps):
    """``(send uids, send clocks, receive uids, receive clocks)`` by a
    plain walk over the steps, repeats kept."""
    sends = [
        (event.message.uid, step.clock_time)
        for step in steps
        for event in step.sends
    ]
    receives = [
        (step.interrupt.message.uid, step.clock_time)
        for step in steps
        if isinstance(step.interrupt, MessageReceiveEvent)
    ]
    return (
        [uid for uid, _ in sends],
        [clock for _, clock in sends],
        [uid for uid, _ in receives],
        [clock for _, clock in receives],
    )


def oracle_timings(steps):
    """The three timing maps of a view, each by its own step walk:
    last send of a uid wins, first receive wins, repeats counted."""
    sent = {}
    received = {}
    counts = {}
    for step in steps:
        for event in step.sends:
            sent[event.message.uid] = step.clock_time
        if isinstance(step.interrupt, MessageReceiveEvent):
            uid = step.interrupt.message.uid
            received.setdefault(uid, step.clock_time)
            counts[uid] = counts.get(uid, 0) + 1
    duplicates = tuple(uid for uid, n in counts.items() if n > 1)
    return sent, received, duplicates


def assert_matches_oracle(view):
    assert view.columns == oracle_columns(view.steps)
    sent, received, duplicates = oracle_timings(view.steps)
    assert list(view.send_clock_times().items()) == list(sent.items())
    assert list(view.receive_clock_times().items()) == list(received.items())
    assert view.duplicate_receive_uids() == duplicates


def step(clock, interrupt, sends=()):
    return Step("s", clock, interrupt, "s", sends=tuple(sends))


def send_step(clock, *messages):
    return step(
        clock,
        TimerEvent(clock_time=clock),
        [MessageSendEvent(m) for m in messages],
    )


def recv_step(clock, message, *replies):
    return step(
        clock,
        MessageReceiveEvent(message),
        [MessageSendEvent(m) for m in replies],
    )


def message(sender, receiver, uid):
    return Message(sender=sender, receiver=receiver, payload=None, uid=uid)


def hand_built_views():
    """A resent uid, a duplicate receive, and a receive step that sends."""
    ab, ba, ab2 = message("a", "b", 1), message("b", "a", 2), message("a", "b", 3)
    return {
        "a": View("a", (
            send_step(1.0, ab),
            send_step(4.0, ab, ab2),
            recv_step(9.5, ba),
        )),
        "b": View("b", (
            recv_step(6.0, ab, ba),
            recv_step(7.0, ab2),
            recv_step(8.0, ab),
        )),
    }


class CountingSteps(tuple):
    """A steps tuple that counts how often it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


class TestColumnsEqualTheStepWalk:
    def test_hand_built_views_with_a_resent_uid(self):
        views = hand_built_views()
        for view in views.values():
            assert_matches_oracle(view)
        a, b = views["a"], views["b"]
        assert a.columns[0] == [1, 1, 3]
        assert a.send_clock_times() == {1: 4.0, 3: 4.0}
        assert b.receive_clock_times() == {1: 6.0, 3: 7.0}
        assert b.duplicate_receive_uids() == (1,)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_simulated_views_with_duplicate_delivery(self, seed):
        plan = FaultPlan(
            faults=(
                DuplicateDelivery(rate=0.4),
                ProcessorCrash(processor=seed % 6, at=25.0),
            ),
            seed=seed,
        )
        scenario = bounded_uniform(ring(6), lb=1.0, ub=3.0, seed=seed)
        views = scenario.with_faults(plan).run().views()
        assert any(view.duplicate_receive_uids() for view in views.values())
        for view in views.values():
            assert_matches_oracle(view)

    def test_empty_view(self):
        view = View("p", ())
        assert view.columns == ([], [], [], [])
        assert view.send_clock_times() == {}
        assert view.receive_clock_times() == {}
        assert view.duplicate_receive_uids() == ()


class TestShiftInvariance:
    """Lemma 4.1: shifting histories in real time changes no view, so no
    column and no estimate moves by a single bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_shift_leaves_views_and_estimates_bit_identical(self, seed):
        scenario = heterogeneous(random_connected(16, 0.2, seed), seed=seed)
        alpha = scenario.run()
        rng = random.Random(seed)
        shifts = {p: rng.uniform(-50.0, 50.0) for p in alpha.histories}
        shifted = shift_execution(alpha, shifts)
        views, shifted_views = alpha.views(), shifted.views()
        assert shifted_views == views
        for p, view in views.items():
            assert shifted_views[p].columns == view.columns
        hexed = [
            {edge: value.hex() for edge, value in
             local_shift_estimates(scenario.system, v).items()}
            for v in (views, shifted_views)
        ]
        assert list(hexed[1].items()) == list(hexed[0].items())


class TestColumnsAreInvisible:
    def test_equality_hash_and_repr(self):
        view = hand_built_views()["b"]
        twin = View(view.processor, tuple(view.steps))
        assert twin == view
        assert hash(twin) == hash(view)
        assert repr(twin) == repr(view)
        assert "columns" not in repr(view)
        assert [f.name for f in dataclasses.fields(View)] == [
            "processor", "steps"
        ]

    def test_pickle_round_trip(self):
        views = bounded_uniform(ring(4), lb=1.0, ub=3.0, seed=1).run().views()
        for view in views.values():
            copy = pickle.loads(pickle.dumps(view))
            assert copy == view
            assert copy.columns == view.columns
            assert_matches_oracle(copy)

    def test_replace_derives_fresh_columns(self):
        a = hand_built_views()["a"]
        shorter = dataclasses.replace(a, steps=a.steps[:1])
        assert shorter.columns == oracle_columns(a.steps[:1])
        assert shorter.columns != a.columns
        assert a.columns == oracle_columns(a.steps)


class TestMatcherReadsOnlyColumns:
    def test_two_estimates_walk_each_view_at_most_once(self):
        scenario = heterogeneous(random_connected(12, 0.3, 7), seed=7)
        plain = scenario.run().views()
        counted = {
            p: View(p, CountingSteps(view.steps)) for p, view in plain.items()
        }
        first = local_shift_estimates(scenario.system, counted)
        second = local_shift_estimates(scenario.system, counted)
        assert first == second == local_shift_estimates(scenario.system, plain)
        walks = {p: view.steps.iterations for p, view in counted.items()}
        assert max(walks.values()) <= 1, walks
