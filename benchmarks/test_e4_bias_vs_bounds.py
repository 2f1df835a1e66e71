"""E4 bench: regenerate the bias-vs-bounds crossover; time synchronization
under the round-trip bias model (Section 6.2)."""

from bench_tables import show_tables

from repro.core.synchronizer import ClockSynchronizer
from repro.experiments import run_experiment
from repro.graphs import ring
from repro.workloads.scenarios import round_trip_bias


def test_e4_bias_vs_bounds(benchmark, capsys):
    tables = run_experiment("E4", quick=True)
    show_tables(capsys, tables)
    (table,) = tables
    winners = {row[0]: row[-1] for row in table.rows}
    assert winners[min(winners)] == "bias"
    assert winners[max(winners)] == "bounds"

    scenario = round_trip_bias(ring(5), bias=0.5, seed=0)
    alpha = scenario.run()
    views = alpha.views()
    synchronizer = ClockSynchronizer(scenario.system)

    result = benchmark(lambda: synchronizer.from_views(views))
    assert result.precision < 1.0  # tight bias -> sub-unit precision
