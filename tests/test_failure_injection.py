"""Failure-injection tests: hostile inputs and misbehaving components.

Each scenario injects one specific failure and asserts the system fails
*loudly and precisely* (specific exception, specific message) or degrades
*honestly* (weaker but still sound results) -- never silently corrupting
an answer.
"""

import math

import pytest

from repro.core.errors import InconsistentViewsError
from repro.core.synchronizer import ClockSynchronizer
from repro.delays.bounds import BoundedDelay, no_bounds
from repro.delays.distributions import Constant, UniformDelay
from repro.delays.system import System
from repro.faults import FaultPlan, MessageLoss
from repro.graphs.topology import line, ring
from repro.model.events import StartEvent, TimerEvent
from repro.sim.network import NetworkSimulator, SimulationError
from repro.sim.processor import Automaton, IdleAutomaton, Send, SetTimer, Transition
from repro.sim.protocols import probe_automata, probe_schedule

from conftest import make_two_node_execution


class _CrashingAutomaton(Automaton):
    """Raises on its second interrupt (mid-run crash)."""

    def initial_state(self):
        return 0

    def on_interrupt(self, state, clock_time, event):
        if isinstance(event, StartEvent):
            return Transition.to(1, timers=(SetTimer(5.0),))
        raise RuntimeError("injected automaton crash")


class _SelfSendAutomaton(Automaton):
    def initial_state(self):
        return 0

    def on_interrupt(self, state, clock_time, event):
        if isinstance(event, StartEvent):
            return Transition.to(1, timers=(SetTimer(1.0),))
        if isinstance(event, TimerEvent):
            return Transition.to(2, sends=(Send(to=0, payload="me"),))
        return Transition.to(state)


class TestSimulatorFailures:
    def _sim(self, topo=None, **kwargs):
        topo = topo or line(2)
        return NetworkSimulator(
            System.uniform(topo, no_bounds()),
            {link: Constant(1.0) for link in topo.links},
            {p: 0.0 for p in topo.nodes},
            **kwargs,
        )

    def test_automaton_crash_propagates(self):
        """User-code exceptions must surface, not be swallowed."""
        with pytest.raises(RuntimeError, match="injected"):
            self._sim().run({0: _CrashingAutomaton(), 1: IdleAutomaton()})

    def test_self_send_rejected(self):
        """Processor 0 sending to itself: no self-links exist."""
        with pytest.raises(SimulationError, match="no such link"):
            self._sim().run({0: _SelfSendAutomaton(), 1: IdleAutomaton()})

    def test_extra_automata_tolerated(self):
        """Automata for unknown processors are ignored (not an error:
        the mapping may come from a larger deployment)."""
        alpha = self._sim().run(
            {0: IdleAutomaton(), 1: IdleAutomaton(), 99: IdleAutomaton()}
        )
        assert set(alpha.processors) == {0, 1}

    def test_negative_start_times_work(self):
        """Real time has no distinguished zero; negative starts are fine."""
        topo = line(2)
        sim = NetworkSimulator(
            System.uniform(topo, no_bounds()),
            {(0, 1): Constant(1.0)},
            {0: -50.0, 1: -49.0},
        )
        alpha = sim.run(
            dict(probe_automata(topo, probe_schedule(1, 2.0, 1.0)))
        )
        alpha.validate()
        assert alpha.start_time(0) == -50.0


class TestPoisonedViews:
    def test_contradictory_bounds_raise_inconsistent(self):
        """Delays wildly outside the declared bounds: the pipeline must
        refuse with InconsistentViewsError, not return garbage."""
        system = System.uniform(line(2), BoundedDelay.symmetric(1.0, 2.0))
        alpha = make_two_node_execution(0.0, 0.0, [10.0], [10.0])
        with pytest.raises(InconsistentViewsError):
            ClockSynchronizer(system).from_execution(alpha)

    def test_foreign_messages_in_views_rejected(self):
        """A view containing a receive whose send is in no view."""
        from repro.core.estimates import IncompleteViewsError, estimated_delays

        alpha = make_two_node_execution(0.0, 0.0, [2.0], [2.0])
        views = alpha.views()
        views.pop(0)
        with pytest.raises(IncompleteViewsError):
            estimated_delays(views)

    def test_empty_views_synchronize_to_components(self):
        """No traffic at all: every processor is its own component, the
        precision is honestly infinite, corrections all zero."""
        from repro.model.builder import ExecutionBuilder

        builder = ExecutionBuilder()
        for p in range(3):
            builder.processor(p, start=float(p))
        alpha = builder.build()
        system = System.uniform(line(3), no_bounds())
        result = ClockSynchronizer(system).from_execution(alpha)
        assert math.isinf(result.precision)
        assert len(result.components) == 3
        assert all(x == 0.0 for x in result.corrections.values())


class TestNumericalExtremes:
    def test_huge_start_skews(self):
        """Start offsets ~1e9 with delays ~1: estimates are huge numbers
        but cycle cancellation keeps the precision exact."""
        system = System.uniform(line(2), BoundedDelay.symmetric(1.0, 3.0))
        alpha = make_two_node_execution(0.0, 1.0e9, [2.0], [2.0])
        result = ClockSynchronizer(system).from_execution(alpha)
        assert result.precision == pytest.approx(1.0, abs=1e-5)
        from repro.core.precision import realized_spread

        assert realized_spread(
            alpha.start_times(), result.corrections
        ) <= result.precision + 1e-5

    def test_tiny_delays(self):
        system = System.uniform(line(2), BoundedDelay.symmetric(0.0, 1e-9))
        alpha = make_two_node_execution(0.0, 0.0, [5e-10], [5e-10])
        result = ClockSynchronizer(system).from_execution(alpha)
        assert 0.0 <= result.precision <= 1e-9

    def test_zero_width_bounds_zero_precision(self):
        system = System.uniform(ring(4), BoundedDelay.symmetric(2.0, 2.0))
        samplers = {link: Constant(2.0) for link in ring(4).links}
        sim = NetworkSimulator(
            system, samplers, {p: float(p) for p in range(4)}
        )
        alpha = sim.run(
            dict(probe_automata(ring(4), probe_schedule(1, 5.0, 1.0)))
        )
        result = ClockSynchronizer(system).from_execution(alpha)
        assert result.precision == pytest.approx(0.0, abs=1e-12)


class TestPartialTraffic:
    def test_single_silent_link_on_ring_degrades_gracefully(self):
        """One silent link under finite bounds still constrains (the
        bounds hold vacuously... no: no messages means no estimates, but
        finite ub still bounds shifts via the OTHER direction).  Verify
        precision stays finite thanks to the ring's redundancy."""
        topo = ring(4)
        system = System.uniform(topo, BoundedDelay.symmetric(1.0, 3.0))
        samplers = {link: UniformDelay(1.0, 3.0) for link in topo.links}
        sim = NetworkSimulator(
            system, samplers, {p: 0.5 * p for p in topo.nodes}, seed=1,
            faults=FaultPlan(faults=tuple(
                MessageLoss(rate=1.0, edge=edge)
                for edge in (topo.links[0], topo.links[0][::-1])
            )),
        )
        alpha = sim.run(
            dict(probe_automata(topo, probe_schedule(3, 5.0, 2.0)))
        )
        result = ClockSynchronizer(system).from_execution(alpha)
        assert result.is_fully_synchronized
        assert not math.isinf(result.precision)
