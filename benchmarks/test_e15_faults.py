"""E15 bench: fault injection overhead; time a lossy simulate+sync cell."""

from bench_tables import show_tables

from repro.core.synchronizer import ClockSynchronizer
from repro.experiments import run_experiment
from repro.faults.plan import FaultPlan, MessageLoss
from repro.graphs import ring
from repro.workloads.scenarios import bounded_uniform


def test_e15_faults(benchmark, capsys):
    tables = run_experiment("E15", quick=True)
    show_tables(capsys, tables)
    (table,) = tables
    # Monitor-clean at every loss rate; the lossy rows really drop traffic.
    assert all(row[-1] == 0 for row in table.rows)
    assert float(table.rows[-1][2]) > 0.0

    plan = FaultPlan(faults=(MessageLoss(rate=0.3),), seed=5, name="bench")

    def lossy_cell():
        scenario = bounded_uniform(
            ring(5), lb=1.0, ub=3.0, probes=4, spacing=2.0, seed=0
        ).with_faults(plan)
        alpha = scenario.run()
        return ClockSynchronizer(scenario.system).from_execution(alpha)

    result = benchmark(lossy_cell)
    assert result.precision > 0.0
