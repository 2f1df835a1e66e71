"""Cross-feature integration tests: features composed together.

Each test exercises a combination the individual suites don't: the
leader protocol over the reliable transport on heterogeneous systems,
diagnosis over archived
traces, online synchronization of lossy runs, campaigns over asymmetric
scenarios -- the way a downstream user would actually mix the pieces.
"""

import math

import pytest

from repro.analysis.diagnosis import diagnose
from repro.analysis.system_io import load_system, save_system
from repro.analysis.trace import load_execution, save_execution
from repro.core.precision import realized_spread, rho_bar
from repro.core.synchronizer import ClockSynchronizer
from repro.extensions.leader import corrections_from_execution, leader_automata
from repro.extensions.online import OnlineSynchronizer
from repro.faults import FaultPlan, MessageLoss
from repro.graphs.topology import grid, ring
from repro.sim.network import NetworkSimulator
from repro.transport import TransportConfig
from repro.workloads.campaign import Campaign
from repro.workloads.scenarios import (
    asymmetric_bounded,
    bounded_uniform,
    heterogeneous,
)


class TestReliableProtocolOnHeterogeneousSystems:
    def test_mixed_assumptions_with_loss(self):
        scenario = heterogeneous(ring(5), seed=9)
        automata = leader_automata(
            scenario.system, leader=0, probe_times=[12.0, 16.0],
            report_time=60.0,
            transport=TransportConfig(
                rto_initial=20.0, rto_max=160.0, max_retries=6
            ),
        )
        sim = NetworkSimulator(
            scenario.system, scenario.samplers, scenario.start_times,
            seed=4, faults=FaultPlan(faults=(MessageLoss(rate=0.2),)),
        )
        alpha = sim.run(automata)
        corrections = corrections_from_execution(alpha)
        full = ClockSynchronizer(scenario.system).from_execution(alpha)
        spread = realized_spread(alpha.start_times(), corrections)
        assert spread <= rho_bar(full.ms_tilde, corrections) + 1e-9

    def test_grid_topology(self):
        scenario = bounded_uniform(grid(2, 3), lb=1.0, ub=3.0, seed=2)
        automata = leader_automata(
            scenario.system, leader=0, probe_times=[12.0], report_time=40.0,
            transport=TransportConfig(rto_initial=7.0, rto_max=56.0),
        )
        sim = NetworkSimulator(
            scenario.system, scenario.samplers, scenario.start_times, seed=2
        )
        corrections = corrections_from_execution(sim.run(automata))
        assert len(corrections) == 6


class TestArchivedDiagnosis:
    def test_diagnose_after_roundtrip(self, tmp_path):
        """Diagnosis verdicts survive serialization (archived evidence)."""
        from repro.delays.bounds import BoundedDelay
        from repro.delays.distributions import Constant, UniformDelay
        from repro.delays.system import System
        from repro.sim.network import SimulationConfig
        from repro.sim.protocols import probe_automata, probe_schedule

        topo = ring(4)
        system = System.uniform(topo, BoundedDelay.symmetric(1.0, 3.0))
        samplers = {link: UniformDelay(1.0, 3.0) for link in topo.links}
        samplers[topo.links[1]] = Constant(8.0)
        sim = NetworkSimulator(
            system, samplers, {p: 0.0 for p in topo.nodes}, seed=0,
            config=SimulationConfig(validate=False),
        )
        alpha = sim.run(
            dict(probe_automata(topo, probe_schedule(2, 5.0, 2.0)))
        )
        save_system(system, tmp_path / "s.json")
        save_execution(alpha, tmp_path / "t.json")
        restored_system = load_system(tmp_path / "s.json")
        restored_alpha = load_execution(tmp_path / "t.json")
        before = diagnose(system, alpha.views())
        after = diagnose(restored_system, restored_alpha.views())
        assert before.convicted == after.convicted
        assert before.consistent == after.consistent


class TestOnlineWithLoss:
    def test_online_sync_of_lossy_run(self):
        scenario = bounded_uniform(ring(5), lb=1.0, ub=3.0, probes=6, seed=3)
        sim = NetworkSimulator(
            scenario.system, scenario.samplers, scenario.start_times,
            seed=3, faults=FaultPlan(faults=(MessageLoss(rate=0.5),)),
        )
        from repro.sim.protocols import probe_automata, probe_schedule

        alpha = sim.run(
            dict(
                probe_automata(
                    scenario.topology, probe_schedule(6, 11.0, 3.0)
                )
            )
        )
        online = OnlineSynchronizer(scenario.system)
        online.ingest_views(alpha.views())
        batch = ClockSynchronizer(scenario.system).from_execution(alpha)
        assert online.precision() == pytest.approx(batch.precision)
        # Whatever survived the loss, soundness holds.
        if not math.isinf(batch.precision):
            assert realized_spread(
                alpha.start_times(), online.result().corrections
            ) <= batch.precision + 1e-9


class TestCampaignComposition:
    def test_campaign_over_asymmetric_scenarios(self):
        campaign = Campaign(seeds=range(2))
        campaign.add(
            "asym",
            lambda t, s: asymmetric_bounded(
                t, lb=1.0, ub=5.0, skew_factor=0.8, seed=s
            ),
        )
        campaign.add("hetero", lambda t, s: heterogeneous(t, seed=s))
        cells = campaign.run_results([ring(4)]).aggregates
        assert all(cell.certified for cell in cells)

    def test_campaign_without_certification(self):
        campaign = Campaign(seeds=range(1), certify=False)
        campaign.add(
            "bounded", lambda t, s: bounded_uniform(t, 1.0, 3.0, seed=s)
        )
        table = campaign.run([ring(4)])
        assert table.rows
