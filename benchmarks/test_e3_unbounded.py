"""E3 bench: regenerate the unbounded-delay tables; time synchronization
under lower-bound-only links (the model worst-case analysis cannot touch).
"""

import math

from bench_tables import show_tables

from repro.core.synchronizer import ClockSynchronizer
from repro.experiments import run_experiment
from repro.graphs import ring
from repro.workloads.scenarios import lower_bound_only


def test_e3_unbounded(benchmark, capsys):
    tables = run_experiment("E3", quick=True)
    show_tables(capsys, tables)
    tail_table, component_table = tables
    assert all(row[-2] for row in tail_table.rows)  # all finite
    assert math.isinf(component_table.rows[0][1])

    scenario = lower_bound_only(ring(5), lb=1.0, mean_extra=2.0, seed=0)
    alpha = scenario.run()
    views = alpha.views()
    synchronizer = ClockSynchronizer(scenario.system)

    result = benchmark(lambda: synchronizer.from_views(views))
    assert not math.isinf(result.precision)
