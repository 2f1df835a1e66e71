"""E5 bench: regenerate the decomposition tables; time synchronization of
a heterogeneous system (mixed assumptions per link, Theorem 5.6)."""

from bench_tables import show_tables

from repro.core.synchronizer import ClockSynchronizer
from repro.experiments import run_experiment
from repro.graphs import ring
from repro.workloads.scenarios import heterogeneous


def test_e5_decomposition(benchmark, capsys):
    tables = run_experiment("E5", quick=True)
    show_tables(capsys, tables)
    link_table, system_table = tables
    assert all(row[-1] for row in link_table.rows)
    assert all(row[-1] for row in system_table.rows)

    scenario = heterogeneous(ring(6), seed=0)
    alpha = scenario.run()
    views = alpha.views()
    synchronizer = ClockSynchronizer(scenario.system)

    result = benchmark(lambda: synchronizer.from_views(views))
    assert result.is_fully_synchronized
