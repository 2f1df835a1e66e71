"""Tests for the leader-based distributed protocol (repro.extensions.leader)."""

import pytest

from repro.core.precision import realized_spread, rho_bar
from repro.core.synchronizer import ClockSynchronizer
from repro.extensions.leader import (
    ProtocolIncomplete,
    corrections_from_execution,
    leader_automata,
    report_stats,
    tree_routing,
)
from repro.graphs.topology import Topology, line, ring, star
from repro.sim.network import NetworkSimulator
from repro.workloads.scenarios import bounded_uniform, heterogeneous


def run_protocol(scenario, leader=0, probe_times=(12.0, 16.0), report_time=60.0):
    automata = leader_automata(
        scenario.system,
        leader=leader,
        probe_times=list(probe_times),
        report_time=report_time,
    )
    sim = NetworkSimulator(
        scenario.system, scenario.samplers, scenario.start_times,
        seed=scenario.seed,
    )
    return sim.run(automata)


class TestTreeRouting:
    def test_star_routes_direct(self):
        routing = tree_routing(star(4), leader=0)
        assert routing[1][0] == 0
        assert routing[0][3] == 3
        # Leaf to leaf goes through the hub.
        assert routing[1][2] == 0

    def test_line_routes_along_path(self):
        routing = tree_routing(line(4), leader=0)
        assert routing[3][0] == 2
        assert routing[2][0] == 1
        assert routing[0][3] == 1
        assert routing[1][3] == 2

    def test_disconnected_rejected(self):
        topo = Topology(name="disc", nodes=(0, 1, 2), links=((0, 1),))
        with pytest.raises(ValueError, match="connected"):
            tree_routing(topo, 0)


class TestProtocolRuns:
    @pytest.mark.parametrize("leader", [0, 2])
    def test_everyone_gets_a_correction(self, leader):
        scenario = bounded_uniform(ring(5), lb=1.0, ub=3.0, seed=4)
        alpha = run_protocol(scenario, leader=leader)
        corrections = corrections_from_execution(alpha)
        assert set(corrections) == set(scenario.system.processors)

    def test_corrections_bounded_by_probe_phase_optimum(self):
        """The protocol achieves exactly the optimum for the statistics the
        leader saw (optimality relative to the probe phase, Section 7)."""
        scenario = bounded_uniform(ring(5), lb=1.0, ub=3.0, seed=4)
        alpha = run_protocol(scenario)
        corrections = corrections_from_execution(alpha)

        leader_state = alpha.history(0).steps[-1].step.new_state
        stats = report_stats(leader_state.reports)
        mls = scenario.system.mls_from_stats(stats)
        probe = ClockSynchronizer(scenario.system).from_local_estimates(mls)
        achieved = rho_bar(probe.ms_tilde, corrections)
        assert achieved == pytest.approx(probe.precision, abs=1e-9)

    def test_realized_spread_within_claimed_precision(self):
        scenario = bounded_uniform(ring(5), lb=1.0, ub=3.0, seed=6)
        alpha = run_protocol(scenario)
        corrections = corrections_from_execution(alpha)
        full = ClockSynchronizer(scenario.system).from_execution(alpha)
        spread = realized_spread(alpha.start_times(), corrections)
        probe_rho = rho_bar(full.ms_tilde, corrections)
        assert spread <= probe_rho + 1e-9

    def test_works_on_heterogeneous_systems(self):
        scenario = heterogeneous(line(4), seed=2)
        alpha = run_protocol(scenario, report_time=80.0)
        corrections = corrections_from_execution(alpha)
        assert len(corrections) == 4

    def test_incomplete_protocol_detected(self):
        """If the run is cut before assignments, extraction fails loudly."""
        scenario = bounded_uniform(ring(4), lb=1.0, ub=3.0, seed=1)
        # Report time far beyond any probe, but run plain probe automata
        # (i.e. a run that never assigns corrections).
        from repro.sim.protocols import probe_automata, probe_schedule

        sim = NetworkSimulator(
            scenario.system,
            scenario.samplers,
            scenario.start_times,
            seed=1,
        )
        alpha = sim.run(
            dict(probe_automata(scenario.topology, probe_schedule(1, 12.0, 1.0)))
        )
        with pytest.raises(ProtocolIncomplete):
            corrections_from_execution(alpha)

    def test_report_time_must_follow_probes(self):
        scenario = bounded_uniform(ring(4), lb=1.0, ub=3.0, seed=1)
        with pytest.raises(ValueError, match="report_time"):
            leader_automata(
                scenario.system,
                leader=0,
                probe_times=[10.0, 20.0],
                report_time=15.0,
            )

    def test_protocol_histories_validate(self):
        scenario = bounded_uniform(ring(4), lb=1.0, ub=3.0, seed=9)
        alpha = run_protocol(scenario)
        alpha.validate()
