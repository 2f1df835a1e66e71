"""E8 bench: regenerate the precision-vs-probes curve; time prefix
re-synchronization (the per-prefix pipeline E8 runs repeatedly)."""

from bench_tables import show_tables

from repro.experiments import run_experiment
from repro.experiments.e8_messages import prefix_precision
from repro.graphs import ring
from repro.workloads.scenarios import bounded_uniform


def test_e8_messages(benchmark, capsys):
    tables = run_experiment("E8", quick=True)
    show_tables(capsys, tables)
    (table,) = tables
    assert all(row[-1] for row in table.rows)  # exact monotonicity
    means = [row[1] for row in table.rows]
    assert means == sorted(means, reverse=True)

    scenario = bounded_uniform(ring(5), lb=1.0, ub=3.0, probes=16,
                               spacing=2.0, seed=0)
    alpha = scenario.run()
    precision = benchmark(lambda: prefix_precision(scenario, alpha, 8))
    assert precision > 0
