"""E9 bench: regenerate the scaling table; time the two scalar reference
kernels (Karp max cycle mean, Bellman--Ford) at a fixed size so
regressions in either show up independently of the end-to-end pipeline;
race the matrix engine backends on the full pipeline through the
:mod:`repro.bench` harness and write the race as ``BENCH_engine.json`` in
the schema'd :class:`~repro.bench.BenchReport` form, under the test's
temporary directory (the tracked baseline is refreshed only on purpose,
with ``repro bench run``)."""

import random

from bench_tables import show_tables

from repro.engine.python_backend import bellman_ford, karp_max_cycle_mean
from repro.experiments import run_experiment


def _dense_graph(n: int, seed: int = 0):
    """Complete weight matrix (list of rows) with random weights."""
    rng = random.Random(seed)
    return [
        [float("inf") if u == v else rng.uniform(0.0, 5.0) for v in range(n)]
        for u in range(n)
    ]


def test_e9_scaling_table(benchmark, capsys):
    tables = run_experiment("E9", quick=True)
    show_tables(capsys, tables)
    assert all(row[-1] > 0 for row in tables[0].rows)

    g = _dense_graph(24)
    result = benchmark(lambda: karp_max_cycle_mean(g))
    assert result is not None


def test_e9_bellman_ford_kernel(benchmark):
    g = _dense_graph(48, seed=1)
    dist = benchmark(lambda: bellman_ford(g, 0))
    assert len(dist) == 48


def test_e9_engine_backends(tmp_path, capsys):
    """python vs numpy engine on the full pipeline; writes BENCH_engine.json.

    The race now runs through the ``repro.bench`` harness (suite
    ``full``, benchmark ``engine.pipeline``, backend x n grid), so the
    archived file is a schema'd, environment-fingerprinted
    ``BenchReport`` instead of the old bare list.  The claims are
    unchanged: the numpy engine must beat the scalar reference
    engine by at least 5x at n=64 (measured ~10x; the bound leaves CI
    headroom), and both backends must agree on A^max to 1e-7.
    """
    from repro.bench import (
        run_suite,
        validate_bench_file,
        write_bench_report,
    )

    outcome = run_suite(
        suite="full", names=["engine.pipeline"], repeats=3, warmup=1
    )
    report = outcome.report

    by_key = report.by_key()
    for n in (8, 16, 32, 64):
        python = by_key[f"engine.pipeline[backend=python,n={n}]"]
        numpy = by_key[f"engine.pipeline[backend=numpy,n={n}]"]
        assert abs(
            python.extra["precision"] - numpy.extra["precision"]
        ) < 1e-7

    out = tmp_path / "BENCH_engine.json"
    write_bench_report(out, report)
    assert validate_bench_file(out) == len(report.results)

    speedups = {}
    with capsys.disabled():
        print()
        for n in (8, 16, 32, 64):
            python = by_key[f"engine.pipeline[backend=python,n={n}]"].wall.min
            numpy = by_key[f"engine.pipeline[backend=numpy,n={n}]"].wall.min
            speedups[n] = python / numpy
            print(
                f"n={n:>3}  python {python:.5f}s  numpy {numpy:.5f}s  "
                f"speedup {speedups[n]:.1f}x"
            )

    assert speedups[64] >= 5.0
