"""Tests for execution statistics (repro.analysis.stats)."""

import pytest

from repro.analysis.stats import execution_statistics, traffic_table
from repro.graphs.topology import ring
from repro.workloads.scenarios import bounded_uniform

from conftest import make_two_node_execution


class TestExecutionStatistics:
    def test_hand_built_counts(self):
        alpha = make_two_node_execution(1.0, 2.0, [2.0, 3.0], [1.5])
        stats = execution_statistics(alpha)
        assert stats.processors == 2
        assert stats.messages_delivered == 3
        assert stats.messages_in_flight == 0
        assert stats.first_start == 1.0
        by_edge = {t.edge: t for t in stats.per_edge}
        assert by_edge[(0, 1)].count == 2
        assert by_edge[(0, 1)].delays.minimum == pytest.approx(2.0)
        assert by_edge[(0, 1)].delays.maximum == pytest.approx(3.0)
        assert by_edge[(1, 0)].count == 1

    def test_in_flight_counted(self):
        from repro.model.builder import ExecutionBuilder

        alpha = (
            ExecutionBuilder()
            .processor(0, start=0.0)
            .processor(1, start=0.0)
            .message(0, 1, send_clock=5.0, delay=1.0)
            .in_flight_message(0, 1, send_clock=6.0)
            .build()
        )
        stats = execution_statistics(alpha)
        assert stats.messages_delivered == 1
        assert stats.messages_in_flight == 1

    def test_duration_spans_start_to_last_event(self):
        alpha = make_two_node_execution(1.0, 5.0, [2.0], [])
        stats = execution_statistics(alpha)
        # Last event: q receives at real 1.0 + 10.0 + 2.0 = 13.0.
        assert stats.duration == pytest.approx(13.0 - 1.0)

    def test_lossy_simulation_stats(self):
        from repro.faults import FaultPlan, MessageLoss
        from repro.sim.network import NetworkSimulator
        from repro.sim.protocols import probe_automata, probe_schedule

        scenario = bounded_uniform(ring(4), lb=1.0, ub=3.0, seed=1)
        dead = scenario.topology.links[0]
        sim = NetworkSimulator(
            scenario.system,
            scenario.samplers,
            scenario.start_times,
            seed=1,
            faults=FaultPlan(faults=tuple(
                MessageLoss(rate=1.0, edge=edge)
                for edge in (dead, dead[::-1])
            )),
        )
        alpha = sim.run(
            dict(
                probe_automata(
                    scenario.topology, probe_schedule(2, 11.0, 2.0)
                )
            )
        )
        stats = execution_statistics(alpha)
        assert stats.messages_in_flight == 2 * 2  # both directions, 2 rounds
        assert stats.messages_delivered == 4 * 2 * 2 - 4


class TestTrafficTable:
    def test_renders(self):
        scenario = bounded_uniform(ring(4), lb=1.0, ub=3.0, seed=2)
        alpha = scenario.run()
        table = traffic_table(alpha)
        assert len(table.rows) == 8  # both directions of 4 links
        text = table.format()
        assert "delivered" in text
        assert "->" in text
