"""Tests for the leader protocol over the reliable transport
(``repro.extensions.leader.leader_automata(transport=...)``)."""

import pytest

from repro.core.precision import realized_spread, rho_bar
from repro.core.synchronizer import ClockSynchronizer
from repro.extensions.leader import (
    LeaderSyncAutomaton,
    ProtocolIncomplete,
    corrections_from_execution,
    leader_automata,
    tree_routing,
)
from repro.faults import FaultPlan, MessageLoss
from repro.graphs.topology import ring
from repro.sim.network import NetworkSimulator
from repro.transport import TransportConfig, TransportError
from repro.workloads.scenarios import bounded_uniform

#: First timeout above a worst-case hop round trip (2 x ub = 6).
CONFIG = TransportConfig(
    rto_initial=7.0, rto_max=56.0, jitter=0.1, window=64, max_retries=8
)


def automata_for(scenario, transport=CONFIG):
    return leader_automata(
        scenario.system,
        leader=0,
        probe_times=[12.0, 16.0],
        report_time=40.0,
        transport=transport,
    )


def loss_plan(rate=None, dead=None):
    """Loss at ``rate`` on every link, or total loss on link ``dead``."""
    if dead is not None:
        return FaultPlan(faults=tuple(
            MessageLoss(rate=1.0, edge=edge) for edge in (dead, dead[::-1])
        ))
    return FaultPlan(faults=(MessageLoss(rate=rate),))


def simulate(scenario, automata, seed=None, plan=None):
    sim = NetworkSimulator(
        scenario.system,
        scenario.samplers,
        scenario.start_times,
        seed=scenario.seed if seed is None else seed,
        faults=plan,
    )
    return sim.run(automata)


def run_reliable(scenario, plan=None, seed=None, transport=CONFIG):
    return simulate(scenario, automata_for(scenario, transport), seed, plan)


def within_guarantee(scenario, alpha, corrections):
    full = ClockSynchronizer(scenario.system).from_execution(alpha)
    return realized_spread(
        alpha.start_times(), corrections
    ) <= rho_bar(full.ms_tilde, corrections) + 1e-9


@pytest.fixture
def scenario():
    return bounded_uniform(ring(5), lb=1.0, ub=3.0, seed=11)


class TestLossless:
    def test_completes_and_validates(self, scenario):
        alpha = run_reliable(scenario)
        alpha.validate()
        corrections = corrections_from_execution(alpha)
        assert set(corrections) == set(scenario.system.processors)

    def test_matches_plain_protocol_without_loss(self, scenario):
        """Without loss the transport only adds acks (drawn after every
        probe), so the corrections equal the plain protocol's exactly."""
        plain = automata_for(scenario, transport=None)
        reliable = automata_for(scenario)
        for seed in range(20):
            assert corrections_from_execution(
                simulate(scenario, reliable, seed)
            ) == corrections_from_execution(simulate(scenario, plain, seed))

    def test_spread_within_guarantee(self, scenario):
        alpha = run_reliable(scenario)
        corrections = corrections_from_execution(alpha)
        assert within_guarantee(scenario, alpha, corrections)

    def test_reused_automata_replay_identically(self, scenario):
        """The machine lives in the per-step state, never on the
        automaton: one automata dict run twice gives the same answer."""
        automata = automata_for(scenario)
        for plan in (None, loss_plan(rate=0.3)):
            first = corrections_from_execution(
                simulate(scenario, automata, 3, plan)
            )
            again = corrections_from_execution(
                simulate(scenario, automata, 3, plan)
            )
            assert first == again


class TestUnderLoss:
    @pytest.mark.parametrize("seed", range(6))
    def test_survives_thirty_percent_loss(self, scenario, seed):
        alpha = run_reliable(scenario, loss_plan(rate=0.3), seed=seed)
        corrections = corrections_from_execution(alpha)
        assert len(corrections) == 5
        assert within_guarantee(scenario, alpha, corrections)

    def test_intact_probes_give_lossless_corrections(self, scenario):
        """A dropped message burns its delay draw: a lossy run whose
        probes all arrived saw the lossless probe delays, so its
        corrections are exactly the lossless ones."""
        automata = automata_for(scenario)
        probes = 2 * 2 * len(scenario.topology.links)
        intact = 0
        for seed in range(20):
            alpha = simulate(scenario, automata, seed, loss_plan(rate=0.1))
            corrections = corrections_from_execution(alpha)
            assert within_guarantee(scenario, alpha, corrections)
            received = sum(
                len(alpha.history(p).steps[-1].step.new_state.observations)
                for p in alpha.processors
            )
            if received == probes:
                intact += 1
                assert corrections == corrections_from_execution(
                    simulate(scenario, automata, seed)
                )
        assert intact > 0, "no run kept every probe; the oracle never ran"

    def test_plain_protocol_deadlocks_where_reliable_survives(self, scenario):
        """Find a loss seed that kills the plain protocol; the transport
        one must complete under the same conditions."""
        plan = loss_plan(rate=0.4)
        plain_automata = automata_for(scenario, transport=None)
        broke_plain = None
        for seed in range(20):
            alpha = simulate(scenario, plain_automata, seed, plan)
            try:
                corrections_from_execution(alpha)
            except ProtocolIncomplete:
                broke_plain = seed
                break
        assert broke_plain is not None, "40% loss never broke the plain protocol?"
        alpha = run_reliable(scenario, plan, seed=broke_plain)
        corrections_from_execution(alpha)  # must not raise

    def test_exhausted_retries_fail_loudly(self, scenario):
        """Total loss on a report path: bounded retries, then a detected
        (never silent) failure."""
        # With leader 0 on ring-5, links[0] = (0, 1) is on the routing tree.
        alpha = run_reliable(
            scenario,
            loss_plan(dead=scenario.topology.links[0]),
            seed=1,
            transport=TransportConfig(
                rto_initial=7.0, rto_max=56.0, max_retries=2
            ),
        )
        with pytest.raises(ProtocolIncomplete):
            corrections_from_execution(alpha)


class TestValidation:
    def test_constructor_validation(self, scenario):
        routing = tree_routing(scenario.topology, 0)
        with pytest.raises(ValueError, match="report_time"):
            LeaderSyncAutomaton(
                me=0, system=scenario.system, leader=0,
                probe_times=[10.0], report_time=5.0, next_hop=routing[0],
                transport=CONFIG,
            )
        with pytest.raises(TransportError, match="rto_initial"):
            TransportConfig(rto_initial=0.0)
