"""Unit and integration tests for the network simulator (repro.sim.network)."""

import json

import pytest

from repro.delays.bounds import BoundedDelay, no_bounds
from repro.delays.distributions import Constant, UniformDelay
from repro.delays.system import System
from repro.graphs.topology import line, ring
from repro.model.events import StartEvent, TimerEvent
from repro.sim.network import (
    NetworkSimulator,
    SimulationConfig,
    SimulationError,
    draw_start_times,
)
from repro.sim.processor import Automaton, IdleAutomaton, Send, SetTimer, Transition
from repro.sim.protocols import probe_automata, probe_schedule


def bounded_system(topo, lb=1.0, ub=3.0):
    return System.uniform(topo, BoundedDelay.symmetric(lb, ub))


def constant_samplers(topo, value=2.0):
    return {link: Constant(value) for link in topo.links}


class TestBasicRuns:
    def test_idle_network_produces_start_only_histories(self):
        topo = line(3)
        sim = NetworkSimulator(
            bounded_system(topo),
            constant_samplers(topo),
            {p: float(p) for p in topo.nodes},
        )
        alpha = sim.run({p: IdleAutomaton() for p in topo.nodes})
        for p in topo.nodes:
            h = alpha.history(p)
            assert len(h) == 1
            assert isinstance(h.steps[0].step.interrupt, StartEvent)
            assert h.start_time == float(p)

    def test_probe_run_validates_and_counts_messages(self):
        topo = ring(4)
        starts = draw_start_times(topo.nodes, 5.0, seed=1)
        sim = NetworkSimulator(
            bounded_system(topo), constant_samplers(topo), starts, seed=1
        )
        alpha = sim.run(dict(probe_automata(topo, probe_schedule(2, 6.0, 2.0))))
        # 4 processors x 2 neighbours x 2 rounds = 16 messages.
        assert len(alpha.message_records()) == 16
        alpha.validate()

    def test_constant_delays_recorded_exactly(self):
        topo = line(2)
        sim = NetworkSimulator(
            bounded_system(topo),
            constant_samplers(topo, 2.5),
            {0: 0.0, 1: 1.0},
        )
        alpha = sim.run(dict(probe_automata(topo, probe_schedule(1, 2.0, 1.0))))
        for record in alpha.message_records().values():
            assert record.delay == pytest.approx(2.5)

    def test_determinism(self):
        topo = ring(5)
        starts = draw_start_times(topo.nodes, 5.0, seed=3)
        samplers = {link: UniformDelay(1.0, 3.0) for link in topo.links}

        def run_once():
            sim = NetworkSimulator(
                bounded_system(topo), samplers, starts, seed=7
            )
            alpha = sim.run(
                dict(probe_automata(topo, probe_schedule(2, 6.0, 2.0)))
            )
            return sorted(
                (r.edge, round(r.delay, 12))
                for r in alpha.message_records().values()
            )

        assert run_once() == run_once()

    def test_message_uids_are_run_scoped(self):
        """Two runs in one process record byte-identical executions."""
        from repro.analysis.trace import execution_to_dict
        from repro.experiments.common import bounded_ring_builder

        def archive():
            alpha = bounded_ring_builder(ring(4), 1).run()
            return json.dumps(execution_to_dict(alpha), sort_keys=True)

        assert archive() == archive()

    def test_flow_trace_spanning_runs_keeps_flow_ids_unique(self, tmp_path):
        from repro.experiments.common import bounded_ring_builder
        from repro.obs import FlowLog
        from repro.obs.flow import validate_flow_trace_file, write_flow_trace
        from repro.obs.recorder import Recorder, recording

        recorder, flows = Recorder(), FlowLog()
        recorder.add_observer(flows)
        with recording(recorder):
            for _ in range(2):
                bounded_ring_builder(ring(4), 1).run()
        path = write_flow_trace(tmp_path / "flow.json", flows)
        assert validate_flow_trace_file(path) == len(flows)

    def test_draw_start_times_deterministic_and_bounded(self):
        a = draw_start_times(range(10), 5.0, seed=2)
        b = draw_start_times(range(10), 5.0, seed=2)
        assert a == b
        assert all(0.0 <= v <= 5.0 for v in a.values())


class TestDeliveryEdgeCases:
    def test_pre_start_arrival_held_until_start(self):
        """A message to a late starter is delivered at its start instant."""
        topo = line(2)
        system = System.uniform(topo, no_bounds())
        sim = NetworkSimulator(
            system,
            constant_samplers(topo, 0.5),
            {0: 0.0, 1: 100.0},
        )
        alpha = sim.run(
            dict(probe_automata(topo, probe_schedule(1, 1.0, 1.0)))
        )
        record = alpha.records_on_edge(0, 1)[0]
        # Sent at real 1.0 with sampled delay 0.5, but held until S_1.
        assert record.receive_real_time == pytest.approx(100.0)
        assert record.delay == pytest.approx(99.0)
        alpha.validate()


class TestConfigurationErrors:
    def test_missing_sampler(self):
        topo = line(3)
        with pytest.raises(SimulationError, match="without samplers"):
            NetworkSimulator(
                bounded_system(topo),
                {(0, 1): Constant(2.0)},
                {p: 0.0 for p in topo.nodes},
            )

    def test_sampler_for_non_link(self):
        topo = line(3)
        samplers = constant_samplers(topo)
        samplers[(0, 2)] = Constant(2.0)
        with pytest.raises(SimulationError, match="non-link"):
            NetworkSimulator(
                bounded_system(topo), samplers, {p: 0.0 for p in topo.nodes}
            )

    def test_non_canonical_sampler_key(self):
        topo = line(2)
        with pytest.raises(SimulationError, match="non-canonical"):
            NetworkSimulator(
                bounded_system(topo),
                {(1, 0): Constant(2.0)},
                {0: 0.0, 1: 0.0},
            )

    def test_missing_start_time(self):
        topo = line(2)
        with pytest.raises(SimulationError, match="start times"):
            NetworkSimulator(
                bounded_system(topo), constant_samplers(topo), {0: 0.0}
            )

    def test_missing_automaton(self):
        topo = line(2)
        sim = NetworkSimulator(
            bounded_system(topo), constant_samplers(topo), {0: 0.0, 1: 0.0}
        )
        with pytest.raises(SimulationError, match="automata"):
            sim.run({0: IdleAutomaton()})


class _BadTimerAutomaton(Automaton):
    def initial_state(self):
        return 0

    def on_interrupt(self, state, clock_time, event):
        if isinstance(event, StartEvent):
            return Transition.to(1, timers=(SetTimer(0.0),))  # not future
        return Transition.to(state)


class _SendToStrangerAutomaton(Automaton):
    def initial_state(self):
        return 0

    def on_interrupt(self, state, clock_time, event):
        if isinstance(event, StartEvent):
            return Transition.to(1, timers=(SetTimer(1.0),))
        if isinstance(event, TimerEvent):
            return Transition.to(2, sends=(Send(to=99, payload="?"),))
        return Transition.to(state)


class _ForeverAutomaton(Automaton):
    def initial_state(self):
        return 0

    def on_interrupt(self, state, clock_time, event):
        return Transition.to(state + 1, timers=(SetTimer(clock_time + 1.0),))


class _WrongReturnAutomaton(Automaton):
    def initial_state(self):
        return 0

    def on_interrupt(self, state, clock_time, event):
        return "not a transition"


class TestRuntimeErrors:
    def _sim(self, topo=None):
        topo = topo or line(2)
        return NetworkSimulator(
            bounded_system(topo),
            constant_samplers(topo),
            {p: 0.0 for p in topo.nodes},
        )

    def test_non_future_timer_rejected(self):
        with pytest.raises(SimulationError, match="future"):
            self._sim().run({0: _BadTimerAutomaton(), 1: IdleAutomaton()})

    def test_send_to_non_neighbor_rejected(self):
        with pytest.raises(SimulationError, match="no such link"):
            self._sim().run({0: _SendToStrangerAutomaton(), 1: IdleAutomaton()})

    def test_runaway_protocol_hits_event_budget(self):
        topo = line(2)
        sim = NetworkSimulator(
            bounded_system(topo),
            constant_samplers(topo),
            {0: 0.0, 1: 0.0},
            config=SimulationConfig(max_events=50),
        )
        with pytest.raises(SimulationError, match="budget"):
            sim.run({0: _ForeverAutomaton(), 1: IdleAutomaton()})

    def test_wrong_transition_type_rejected(self):
        with pytest.raises(SimulationError, match="Transition"):
            self._sim().run({0: _WrongReturnAutomaton(), 1: IdleAutomaton()})

    def test_sampler_assumption_mismatch_detected(self):
        """A sampler outside the assumption's support fails the run."""
        topo = line(2)
        system = System.uniform(topo, BoundedDelay.symmetric(1.0, 3.0))
        sim = NetworkSimulator(
            system, {(0, 1): Constant(10.0)}, {0: 0.0, 1: 0.0}
        )
        with pytest.raises(SimulationError, match="violate"):
            sim.run(dict(probe_automata(topo, probe_schedule(1, 1.0, 1.0))))

    def test_validation_can_be_disabled(self):
        topo = line(2)
        system = System.uniform(topo, BoundedDelay.symmetric(1.0, 3.0))
        sim = NetworkSimulator(
            system,
            {(0, 1): Constant(10.0)},
            {0: 0.0, 1: 0.0},
            config=SimulationConfig(validate=False),
        )
        alpha = sim.run(dict(probe_automata(topo, probe_schedule(1, 1.0, 1.0))))
        assert not system.is_admissible(alpha)


class TestTimerSemantics:
    def test_duplicate_timer_set_fires_once(self):
        class DoubleSet(Automaton):
            def initial_state(self):
                return 0

            def on_interrupt(self, state, clock_time, event):
                if isinstance(event, StartEvent):
                    return Transition.to(
                        1, timers=(SetTimer(5.0), SetTimer(5.0))
                    )
                if isinstance(event, TimerEvent):
                    return Transition.to(state + 1)
                return Transition.to(state)

        topo = line(2)
        sim = NetworkSimulator(
            bounded_system(topo), constant_samplers(topo), {0: 0.0, 1: 0.0}
        )
        alpha = sim.run({0: DoubleSet(), 1: IdleAutomaton()})
        timer_steps = [
            ts
            for ts in alpha.history(0)
            if isinstance(ts.step.interrupt, TimerEvent)
        ]
        assert len(timer_steps) == 1
        alpha.validate()
