"""E11 bench: regenerate the windowed-bias tables; time the windowed
local-estimate computation (pairwise, the only super-linear-in-messages
stage of the whole pipeline)."""

import random

from bench_tables import show_tables

from repro._types import INF
from repro.experiments import run_experiment
from repro.extensions.windowed_bias import TimedObservation, WindowedBias


def test_e11_windowed(benchmark, capsys):
    tables = run_experiment("E11", quick=True)
    show_tables(capsys, tables)
    equivalence, sweep = tables
    assert all(row[-1] for row in equivalence.rows)
    # The unsound all-pairs row (W = inf) must be flagged every time.
    inf_row = next(row for row in sweep.rows if row[0] == INF)
    flagged, runs = inf_row[-1].split("/")
    assert flagged == runs

    rng = random.Random(0)
    fwd = [
        TimedObservation(rng.uniform(0, 100), rng.uniform(4, 6))
        for _ in range(40)
    ]
    rev = [
        TimedObservation(rng.uniform(0, 100), rng.uniform(4, 6))
        for _ in range(40)
    ]
    model = WindowedBias(bias=0.5, window=10.0)
    value = benchmark(lambda: model.mls_bound(fwd, rev))
    assert value <= min(o.delay for o in fwd)
