"""E6 bench: regenerate the LP cross-check table; time the combinatorial
pipeline against the LP oracle on the same instance -- the speed gap is
the practical argument for the paper's approach over [3]."""

from bench_tables import show_tables

from repro.baselines.lp import lp_optimal_corrections
from repro.core.synchronizer import ClockSynchronizer
from repro.engine import NumpyEngine
from repro.experiments import run_experiment
from repro.graphs import ring
from repro.workloads.scenarios import bounded_uniform


def _instance():
    scenario = bounded_uniform(ring(6), lb=1.0, ub=4.0, seed=1)
    alpha = scenario.run()
    result = ClockSynchronizer(scenario.system).from_execution(alpha)
    return list(scenario.system.processors), result.ms_tilde, result.precision


def test_e6_karp_vs_lp_tables(benchmark, capsys):
    tables = run_experiment("E6", quick=True)
    show_tables(capsys, tables)
    for row in tables[0].rows:
        assert abs(row[1] - row[2]) < 1e-6

    processors, ms_tilde, expected = _instance()
    engine = NumpyEngine()
    outcome = benchmark(lambda: engine.shifts(ms_tilde.matrix))
    assert abs(outcome.a_max - expected) < 1e-9


def test_e6_lp_solver_baseline(benchmark):
    """The LP oracle on the same instance, for the timing comparison."""
    processors, ms_tilde, expected = _instance()
    _, eps = benchmark(lambda: lp_optimal_corrections(processors, ms_tilde))
    assert abs(eps - expected) < 1e-6
