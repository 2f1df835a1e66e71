"""The array front end of Lemma 6.1 against the scalar Section 6 path.

``local_shift_estimates`` matches the views' sends and receives once, on
arrays, and evaluates every link's compiled terms in a few vector
expressions.  It must equal ``System.mls_from_delays(estimated_delays(
views))`` with ``==`` on every directed edge and in the same key order,
and ``estimated_delays`` must equal the dict-based matcher below, which
is how the uid matching was written before it moved onto arrays.
"""

import math

import pytest

from repro.core.estimates import (
    IncompleteViewsError,
    estimated_delays,
    local_shift_estimates,
    partial_estimated_delays,
    partial_local_shift_estimates,
)
from repro.core.synchronizer import ClockSynchronizer
from repro.delays.base import Term
from repro.delays.bias import RoundTripBias, RoundTripBiasUnsigned
from repro.delays.bounds import BoundedDelay, lower_bounds_only, no_bounds
from repro.delays.composite import Composite
from repro.delays.system import System
from repro.faults import DuplicateDelivery, FaultPlan, ProcessorCrash
from repro.graphs.topology import Topology, line, random_connected, ring
from repro.model.events import (
    Message,
    MessageReceiveEvent,
    MessageSendEvent,
    TimerEvent,
)
from repro.model.steps import Step
from repro.model.views import View
from repro.workloads.scenarios import bounded_uniform, heterogeneous

from conftest import make_two_node_execution


def reference_delays(views, strict=True):
    """Per-edge estimated delays by dict matching; ``(delays, orphans)``."""
    send_clocks, senders = {}, {}
    for p, view in views.items():
        for uid, clock in view.send_clock_times().items():
            send_clocks[uid] = clock
            senders[uid] = p
    out, orphans = {}, 0
    for q, view in views.items():
        for uid, recv_clock in view.receive_clock_times().items():
            if uid not in send_clocks:
                if strict:
                    raise IncompleteViewsError(
                        f"{q!r} received message {uid} but no view contains "
                        "its send"
                    )
                orphans += 1
                continue
            out.setdefault((senders[uid], q), []).append(
                recv_clock - send_clocks[uid]
            )
    return out, orphans


def assert_parity(system, views):
    fast = local_shift_estimates(system, views)
    scalar = system.mls_from_delays(estimated_delays(views))
    assert list(fast) == list(scalar)
    assert fast == scalar
    delays, _ = reference_delays(views)
    assert list(estimated_delays(views)) == list(delays)
    assert estimated_delays(views) == delays
    assert fast == system.mls_from_delays(delays)
    return fast


def step(clock, interrupt, sends=()):
    return Step("s", clock, interrupt, "s", sends=tuple(sends))


def send_step(clock, *messages):
    return step(
        clock,
        TimerEvent(clock_time=clock),
        [MessageSendEvent(m) for m in messages],
    )


def recv_step(clock, message):
    return step(clock, MessageReceiveEvent(message))


def message(sender, receiver, uid):
    return Message(sender=sender, receiver=receiver, payload=None, uid=uid)


MODELS = {
    "bounded": BoundedDelay(
        lb_forward=0.5, ub_forward=3.5, lb_reverse=0.25, ub_reverse=4.0
    ),
    "lower-only": lower_bounds_only(0.75, 0.5),
    "no-bounds": no_bounds(),
    "bias": RoundTripBias(0.8),
    "bias-unsigned": RoundTripBiasUnsigned(0.5),
    "composite": Composite.of(lower_bounds_only(0.5), RoundTripBias(1.5)),
    "nested-composite": Composite(
        components=(
            Composite.of(
                BoundedDelay.symmetric(0.5, 3.0), RoundTripBiasUnsigned(0.4)
            ),
            RoundTripBias(2.0),
        )
    ),
}


class TestModels:
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_each_model_matches_the_scalar_path(self, name):
        views = bounded_uniform(ring(6), lb=1.0, ub=3.0, seed=4).run().views()
        assert_parity(System.uniform(ring(6), MODELS[name]), views)

    def test_mixed_links_both_orientations(self):
        topology = random_connected(12, 0.3, 5)
        views = heterogeneous(topology, seed=5).run().views()
        models = [MODELS[name] for name in sorted(MODELS)]
        per_link = {}
        for i, (p, q) in enumerate(topology.links):
            # Every other link is keyed against its canonical orientation.
            key = (p, q) if i % 2 else (q, p)
            per_link[key] = models[i % len(models)]
        assert_parity(System.from_links(topology, per_link), views)

    def test_heterogeneous_scenario(self):
        scenario = heterogeneous(random_connected(32, 0.15, 2), seed=2)
        assert_parity(scenario.system, scenario.run().views())

    def test_nested_composite_terms_are_concatenated(self):
        nested = MODELS["nested-composite"]
        assert nested.terms() == (
            Term.upper(3.0),
            Term.lower(0.5),
            Term.bias(0.4),
            Term.lower(0.0),
            Term.bias(2.0),
        )


class TestSilentDirections:
    def test_silent_link(self):
        """A link that carried nothing reads +inf both ways."""
        views = bounded_uniform(line(4), lb=1.0, ub=3.0, seed=1).run().views()
        for name in sorted(MODELS):
            system = System.uniform(ring(4), MODELS[name])
            mls = assert_parity(system, views)
            assert mls[(3, 0)] == mls[(0, 3)] == math.inf

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_one_silent_direction(self, name):
        alpha = make_two_node_execution(2.0, 5.0, [1.5, 2.5], [])
        assert_parity(System.uniform(line(2), MODELS[name]), alpha.views())

    def test_no_messages_at_all(self):
        alpha = make_two_node_execution(0.0, 0.0, [], [])
        mls = assert_parity(
            System.uniform(line(2), RoundTripBias(1.0)), alpha.views()
        )
        assert mls == {(0, 1): math.inf, (1, 0): math.inf}


class TestFaults:
    def test_duplicates_and_in_flight_messages(self):
        plan = FaultPlan(
            faults=(
                DuplicateDelivery(rate=0.5),
                ProcessorCrash(processor=3, at=25.0),
            ),
            seed=3,
        )
        scenario = bounded_uniform(ring(6), lb=1.0, ub=3.0, seed=3)
        views = scenario.with_faults(plan).run().views()
        assert any(view.duplicate_receive_uids() for view in views.values())
        sent = {m.uid for view in views.values() for m in view.sent_messages()}
        received = {
            m.uid for view in views.values() for m in view.received_messages()
        }
        assert sent - received, "expected messages still in flight"
        for name in sorted(MODELS):
            assert_parity(System.uniform(ring(6), MODELS[name]), views)

    def test_first_receive_wins_and_last_send_wins(self):
        a_to_b = message("a", "b", 7)
        views = {
            "a": View("a", (send_step(1.0, a_to_b), send_step(4.0, a_to_b))),
            "b": View("b", (recv_step(9.0, a_to_b), recv_step(20.0, a_to_b))),
        }
        topology = Topology(name="ab", nodes=("a", "b"), links=(("a", "b"),))
        system = System.uniform(topology, no_bounds())
        assert estimated_delays(views) == {("a", "b"): [5.0]}
        assert assert_parity(system, views)[("a", "b")] == 5.0


class TestViewsOutsideTheSystem:
    def test_non_index_order(self):
        scenario = heterogeneous(ring(7), seed=6)
        views = scenario.run().views()
        shuffled = {p: views[p] for p in sorted(views, key=lambda p: (p % 3, -p))}
        assert list(shuffled) != list(views)
        assert local_shift_estimates(scenario.system, shuffled) == (
            assert_parity(scenario.system, views)
        )
        assert_parity(scenario.system, shuffled)

    def test_extra_processors_and_non_link_messages_are_ignored(self):
        views = bounded_uniform(ring(5), lb=1.0, ub=3.0, seed=2).run().views()
        # line(4) drops processor 4 and the ring's closing link (4, 0);
        # a link missing from the system is ignored as well.
        sub = Topology(
            name="sub", nodes=(0, 1, 2, 3), links=((0, 1), (2, 1), (2, 3))
        )
        for name in sorted(MODELS):
            mls = assert_parity(System.uniform(sub, MODELS[name]), views)
            assert set(mls) == {
                (0, 1), (1, 0), (2, 1), (1, 2), (2, 3), (3, 2)
            }


class TestIncompleteViews:
    def views_with_orphans(self):
        ab, cb, ca = message("a", "b", 1), message("c", "b", 2), message(
            "c", "a", 3
        )
        return {
            "a": View("a", (send_step(1.0, ab), recv_step(6.0, ca))),
            "b": View("b", (recv_step(3.0, ab), recv_step(4.0, cb))),
        }, Topology(
            name="abc", nodes=("a", "b", "c"),
            links=(("a", "b"), ("b", "c"), ("c", "a")),
        )

    def test_strict_names_the_first_orphan(self):
        views, topology = self.views_with_orphans()
        system = System.uniform(topology, no_bounds())
        with pytest.raises(IncompleteViewsError) as expected:
            reference_delays(views)
        assert str(expected.value) == (
            "'a' received message 3 but no view contains its send"
        )
        for call in (
            lambda: estimated_delays(views),
            lambda: local_shift_estimates(system, views),
        ):
            with pytest.raises(IncompleteViewsError) as raised:
                call()
            assert str(raised.value) == str(expected.value)

    def test_strict_message_on_a_simulated_execution(self):
        scenario = bounded_uniform(ring(5), lb=1.0, ub=3.0, seed=8)
        views = scenario.run().views()
        del views[2]
        with pytest.raises(IncompleteViewsError) as expected:
            reference_delays(views)
        with pytest.raises(IncompleteViewsError) as raised:
            local_shift_estimates(scenario.system, views)
        assert str(raised.value) == str(expected.value)

    def test_allow_partial_counts_orphans(self):
        scenario = bounded_uniform(ring(5), lb=1.0, ub=3.0, seed=8)
        views = scenario.run().views()
        del views[2]
        delays, orphans = reference_delays(views, strict=False)
        assert orphans > 0
        assert partial_estimated_delays(views) == (delays, orphans)
        mls, counted = partial_local_shift_estimates(scenario.system, views)
        assert counted == orphans
        scalar = scenario.system.mls_from_delays(delays)
        assert list(mls) == list(scalar) and mls == scalar
        result = ClockSynchronizer(scenario.system).from_views(
            views, allow_partial=True
        )
        assert result.degraded.orphan_receives == orphans
        assert [result.mls_tilde[edge] for edge in scalar] == list(
            scalar.values()
        )

    def test_allow_partial_hand_built(self):
        views, _ = self.views_with_orphans()
        assert partial_estimated_delays(views) == ({("a", "b"): [2.0]}, 2)
