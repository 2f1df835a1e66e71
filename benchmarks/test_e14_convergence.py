"""E14 bench: online convergence under monitors; time the replay loop."""

from bench_tables import show_tables

from repro.experiments import run_experiment
from repro.graphs import ring
from repro.obs.timeline import replay_online
from repro.workloads.scenarios import bounded_uniform


def test_e14_convergence(benchmark, capsys):
    tables = run_experiment("E14", quick=True)
    show_tables(capsys, tables)
    trajectory, summary = tables
    # Every seed must finish monitor-clean (last column is violations).
    assert all(row[-1] == 0 for row in summary.rows)
    # Precision tightens monotonically along the trajectory.
    finite = [
        float(row[2]) for row in trajectory.rows if row[2] != "inf"
    ]
    assert finite and all(
        b <= a + 1e-9 for a, b in zip(finite, finite[1:])
    )

    scenario = bounded_uniform(
        ring(5), lb=1.0, ub=3.0, probes=8, spacing=2.0, seed=0
    )
    alpha = scenario.run()
    result = benchmark(lambda: replay_online(scenario.system, alpha))
    assert result.final.observations == len(alpha.message_records())
