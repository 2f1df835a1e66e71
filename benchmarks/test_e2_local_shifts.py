"""E2 bench: regenerate the mls-formula table; time the closed form vs
the bisection search it replaces (the paper's formulas are the fast path).
"""

from bench_tables import show_tables

from repro.delays.base import DirectionStats, PairTiming
from repro.delays.bounds import BoundedDelay
from repro.experiments import run_experiment
from repro.experiments.e2_local_shifts import search_mls


def test_e2_formula(benchmark, capsys):
    tables = run_experiment("E2", quick=True)
    show_tables(capsys, tables)
    assert all(row[-1] for row in tables[0].rows)

    assumption = BoundedDelay.symmetric(1.0, 3.0)
    timing = PairTiming(
        forward=DirectionStats.of([1.5, 2.0, 2.2]),
        reverse=DirectionStats.of([2.1, 2.4]),
    )
    value = benchmark(lambda: assumption.mls_bound(timing))
    assert abs(value - search_mls(assumption, [1.5, 2.0, 2.2], [2.1, 2.4])) < 1e-6
