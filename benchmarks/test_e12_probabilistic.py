"""E12 bench: regenerate the probabilistic tables; time one
probabilistic synchronization (quantile compilation + pipeline)."""

import math

from bench_tables import show_tables

from repro.experiments import run_experiment
from repro.experiments.e12_probabilistic import _simulate
from repro.extensions.probabilistic import (
    ExponentialDelay,
    probabilistic_synchronize,
)
from repro.graphs import ring


def test_e12_probabilistic(benchmark, capsys):
    tables = run_experiment("E12", quick=True)
    show_tables(capsys, tables)
    tradeoff, coverage = tables
    assert tradeoff.rows and coverage.rows
    # Guarantee-conditional success must be total: "k/k" in every row.
    for row in coverage.rows:
        ok, held = row[-1].split("/")
        assert ok == held

    topo = ring(4)
    dist = ExponentialDelay(minimum=0.5, mean_extra=1.5)
    dists = {link: dist for link in topo.links}
    alpha = _simulate(topo, dist, seed=0)
    views = alpha.views()

    result = benchmark(
        lambda: probabilistic_synchronize(topo, views, dists, delta=0.05)
    )
    assert not math.isinf(result.precision)
