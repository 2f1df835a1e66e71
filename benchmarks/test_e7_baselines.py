"""E7 bench: regenerate the baseline comparison; time the NTP-style
baseline (whose cheapness is its only advantage)."""

from bench_tables import show_tables

from repro.baselines.ntp_like import ntp_corrections
from repro.experiments import run_experiment
from repro.graphs import ring
from repro.workloads.scenarios import bounded_uniform


def test_e7_baselines(benchmark, capsys):
    tables = run_experiment("E7", quick=True)
    show_tables(capsys, tables)
    for row in tables[0].rows:
        assert row[4] >= 1.0 - 1e-9
        assert row[5] >= 1.0 - 1e-9
    assert tables[1].rows[0][-1] > 1.0  # favourable-conditions dividend

    scenario = bounded_uniform(ring(6), lb=1.0, ub=3.0, seed=0)
    alpha = scenario.run()
    views = alpha.views()
    corrections = benchmark(lambda: ntp_corrections(scenario.topology, views))
    assert len(corrections) == 6
