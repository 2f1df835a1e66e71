"""Tests for message loss in the simulator (graceful degradation).

The paper's delivery system never loses messages; the simulator can lose
them anyway to probe robustness: a lost message is simply "in flight
forever", the execution stays well formed, the synchronizer sees fewer
observations and degrades honestly (weaker precision or components,
never wrong answers).  Loss is a fault plan's ``MessageLoss``: a
per-link rate becomes one fault per direction of that link.
"""

import math

import pytest

from repro.core.synchronizer import ClockSynchronizer
from repro.delays.bounds import BoundedDelay
from repro.delays.distributions import UniformDelay
from repro.delays.system import System
from repro.faults import FaultPlan, FaultPlanError, MessageLoss
from repro.graphs.topology import line, ring
from repro.sim.network import NetworkSimulator
from repro.sim.protocols import probe_automata, probe_schedule


def loss_plan(loss):
    """``{canonical link: rate}`` as a plan: one fault per direction."""
    if not loss:
        return None
    return FaultPlan(faults=tuple(
        MessageLoss(rate=rate, edge=edge)
        for (p, q), rate in loss.items()
        for edge in ((p, q), (q, p))
    ))


def lossy_run(topo, loss, seed=0, probes=3):
    system = System.uniform(topo, BoundedDelay.symmetric(1.0, 3.0))
    samplers = {link: UniformDelay(1.0, 3.0) for link in topo.links}
    starts = {p: float(p) * 0.3 for p in topo.nodes}
    sim = NetworkSimulator(
        system, samplers, starts, seed=seed, faults=loss_plan(loss)
    )
    alpha = sim.run(
        dict(probe_automata(topo, probe_schedule(probes, 5.0, 2.0)))
    )
    return system, alpha


class TestLossMechanics:
    def test_no_loss_by_default(self):
        topo = ring(4)
        _, alpha = lossy_run(topo, loss=None)
        assert len(alpha.message_records()) == 4 * 2 * 3

    def test_total_loss_on_one_link(self):
        topo = ring(4)
        dead = topo.links[0]
        system, alpha = lossy_run(topo, loss={dead: 1.0})
        alpha.validate()
        delivered_edges = {r.edge for r in alpha.message_records().values()}
        assert dead not in delivered_edges
        assert (dead[1], dead[0]) not in delivered_edges
        # Sends still appear in the sender's view (in-flight messages).
        sent = alpha.view(dead[0]).sent_messages()
        assert any(m.receiver == dead[1] for m in sent)

    def test_partial_loss_reduces_delivery(self):
        topo = ring(4)
        _, full = lossy_run(topo, loss=None, probes=10)
        _, lossy = lossy_run(
            topo, loss={link: 0.5 for link in topo.links}, probes=10
        )
        assert len(lossy.message_records()) < len(full.message_records())
        assert len(lossy.message_records()) > 0

    def test_loss_validation(self):
        topo = ring(4)
        system = System.uniform(topo, BoundedDelay.symmetric(1.0, 3.0))
        samplers = {link: UniformDelay(1.0, 3.0) for link in topo.links}
        with pytest.raises(FaultPlanError, match=r"rate must be in \[0, 1\]"):
            loss_plan({topo.links[0]: 1.5})
        with pytest.raises(FaultPlanError, match="not a link"):
            NetworkSimulator(
                system, samplers, {p: 0.0 for p in topo.nodes},
                faults=loss_plan({(99, 100): 0.5}),
            )

    def test_deterministic_given_seed(self):
        topo = ring(4)
        loss = {link: 0.3 for link in topo.links}
        _, a = lossy_run(topo, loss=loss, seed=5)
        _, b = lossy_run(topo, loss=loss, seed=5)
        assert len(a.message_records()) == len(b.message_records())


class TestGracefulDegradation:
    def test_dead_link_on_ring_still_synchronizes(self):
        """Ring minus one link is a line: precision degrades, stays finite."""
        topo = ring(5)
        dead = topo.links[0]
        system, healthy = lossy_run(topo, loss=None, seed=2)
        _, degraded = lossy_run(topo, loss={dead: 1.0}, seed=2)
        sync = ClockSynchronizer(system)
        full = sync.from_execution(healthy)
        partial = sync.from_execution(degraded)
        assert partial.is_fully_synchronized
        assert not math.isinf(partial.precision)
        assert partial.precision >= full.precision - 1e-9

    def test_dead_link_on_line_splits_components(self):
        topo = line(4)
        dead = topo.links[1]
        system, alpha = lossy_run(topo, loss={dead: 1.0}, seed=1)
        result = ClockSynchronizer(system).from_execution(alpha)
        assert math.isinf(result.precision)
        assert len(result.components) == 2
        for component in result.components:
            assert not math.isinf(component.precision)

    def test_lossy_results_still_sound(self):
        """Whatever survives, realized spread stays within the claim."""
        from repro.core.precision import realized_spread

        topo = ring(5)
        loss = {link: 0.4 for link in topo.links}
        system, alpha = lossy_run(topo, loss=loss, seed=3, probes=6)
        result = ClockSynchronizer(system).from_execution(alpha)
        if not math.isinf(result.precision):
            assert (
                realized_spread(alpha.start_times(), result.corrections)
                <= result.precision + 1e-9
            )
