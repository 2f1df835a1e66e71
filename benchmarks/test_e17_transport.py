"""E17 bench: time a lossy transport trace (emergent delays) end to end."""

from bench_tables import show_tables

from repro.delays.bounds import BoundedDelay
from repro.delays.distributions import UniformDelay
from repro.delays.system import System
from repro.experiments import run_experiment
from repro.experiments.e17_transport import CONFIG, LB, UB
from repro.faults.plan import FaultPlan, MessageLoss
from repro.graphs import ring
from repro.sim.network import draw_start_times
from repro.sim.transport import run_transport_probes


def test_e17_transport(benchmark, capsys):
    tables = run_experiment("E17", quick=True)
    show_tables(capsys, tables)
    models, bias = tables
    # Every row passed the strict monitor suite, and the lossy rows
    # really retransmitted.
    assert all(row[-1] == "pass (strict)" for row in models.rows)
    assert float(models.rows[-1][1]) > 0.0
    # At zero loss the measured-b bias model beats absolute bounds.
    assert float(bias.rows[0][-1]) < 1.0

    topo = ring(4)
    system = System.uniform(topo, BoundedDelay.symmetric(LB, UB))
    samplers = {link: UniformDelay(LB, UB) for link in topo.links}
    starts = draw_start_times(topo.nodes, max_skew=4.0, seed=3)
    plan = FaultPlan(
        faults=tuple(MessageLoss(rate=0.25, edge=link) for link in topo.links),
        seed=3,
        name="bench",
    )

    def lossy_trace():
        return run_transport_probes(
            system,
            samplers,
            starts,
            probe_times=tuple(5.0 * (k + 1) for k in range(6)),
            seed=3,
            plan=plan,
            config=CONFIG,
        )

    trace = benchmark(lossy_trace)
    assert trace.fully_accounted
    assert trace.retransmits() > 0
