"""E10 bench: regenerate the extension tables; time one full
leader-protocol simulation (probes + reports + assignments) and one
drift resync round."""

from bench_tables import show_tables

from repro.delays.bounds import BoundedDelay
from repro.delays.distributions import UniformDelay
from repro.delays.system import System
from repro.experiments import run_experiment
from repro.extensions.drift import DriftingClocks, periodic_resync
from repro.extensions.leader import corrections_from_execution, leader_automata
from repro.graphs import ring
from repro.sim.network import NetworkSimulator
from repro.workloads.scenarios import bounded_uniform


def test_e10_tables_and_leader_protocol(benchmark, capsys):
    tables = run_experiment("E10", quick=True)
    show_tables(capsys, tables)
    leader_table, drift_table, reliable_table = tables
    for row in leader_table.rows:
        assert row[3] <= row[1] + 1e-9  # full-view optimum <= protocol
    assert drift_table.rows
    for row in reliable_table.rows:
        done, total = row[2].split("/")
        assert done == total

    scenario = bounded_uniform(ring(5), lb=1.0, ub=3.0, seed=0)
    automata = leader_automata(
        scenario.system, leader=0, probe_times=[12.0, 16.0], report_time=60.0
    )

    def run_protocol():
        sim = NetworkSimulator(
            scenario.system, scenario.samplers, scenario.start_times, seed=0
        )
        return corrections_from_execution(sim.run(automata))

    corrections = benchmark(run_protocol)
    assert len(corrections) == 5


def test_e10_drift_resync_round(benchmark):
    topo = ring(4)
    system = System.uniform(topo, BoundedDelay.symmetric(1.0, 3.0))
    samplers = {link: UniformDelay(1.0, 3.0) for link in topo.links}
    clocks = DriftingClocks.draw(topo.nodes, 5.0, 1e-5, seed=3)
    rounds = benchmark(
        lambda: periodic_resync(
            system, samplers, clocks, period=100.0, rounds=1, seed=3
        )
    )
    assert len(rounds) == 1
