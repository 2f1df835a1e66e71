"""E1 bench: regenerate the optimality table; time the full pipeline.

The benched routine is one complete synchronization (views -> mls~ ->
ms~ -> SHIFTS) on a ring-6 instance -- the operation E1 runs per seed
and topology.
"""

from bench_tables import show_tables

from repro.core.synchronizer import ClockSynchronizer
from repro.experiments import run_experiment
from repro.graphs import ring
from repro.workloads.scenarios import bounded_uniform


def test_e1_optimality(benchmark, capsys):
    tables = run_experiment("E1", quick=True)
    show_tables(capsys, tables)
    assert all(row[-1] for row in tables[0].rows)  # everything certified

    scenario = bounded_uniform(ring(6), lb=1.0, ub=3.0, seed=0)
    alpha = scenario.run()
    views = alpha.views()
    synchronizer = ClockSynchronizer(scenario.system)

    result = benchmark(lambda: synchronizer.from_views(views))
    assert result.is_fully_synchronized
