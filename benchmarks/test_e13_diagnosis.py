"""E13 bench: regenerate the diagnosis tables; time one full
screen-and-repair pass on a system with a rogue link."""

import math

from bench_tables import show_tables

from repro.analysis.diagnosis import diagnose_and_repair
from repro.experiments import run_experiment
from repro.experiments.e13_diagnosis import _run_with_rogue_link
from repro.graphs import ring


def test_e13_diagnosis(benchmark, capsys):
    tables = run_experiment("E13", quick=True)
    show_tables(capsys, tables)
    detection, repair = tables
    # Above-threshold severities must always be detected and localized.
    for row in detection.rows:
        if row[1]:  # detectable
            detected, runs = row[2].split("/")
            assert detected == runs
    assert all(row[-1] for row in repair.rows)  # repairs fully synchronized

    topo = ring(5)
    system, alpha = _run_with_rogue_link(topo, topo.links[0], 10.0, seed=0)
    views = alpha.views()

    diagnosis, repaired = benchmark(
        lambda: diagnose_and_repair(system, views)
    )
    assert not diagnosis.consistent
    assert not math.isinf(repaired.precision)
