"""Unit tests for the LP oracles (repro.baselines.lp)."""

import pytest

from repro._types import INF
from repro.baselines.lp import (
    LPError,
    assumption_constraints,
    lp_ms_tilde,
    lp_optimal_corrections,
    system_constraints,
)
from repro.core.precision import rho_bar
from repro.core.synchronizer import ClockSynchronizer
from repro.delays.base import Term
from repro.delays.bias import RoundTripBias
from repro.delays.bounds import BoundedDelay, lower_bounds_only
from repro.delays.composite import Composite
from repro.graphs.topology import line, ring
from repro.workloads.scenarios import (
    bounded_uniform,
    heterogeneous,
    round_trip_bias,
)


class TestConstraintCompilation:
    def test_bounded_constraints(self):
        a = BoundedDelay.symmetric(1.0, 3.0)
        cons = assumption_constraints(a, "p", "q", fwd=[1.5, 2.0], rev=[2.5])
        assert len(cons) == 2
        fwd_con = next(c for c in cons if c.u == "p")
        assert fwd_con.low == pytest.approx(1.0 - 1.5)
        assert fwd_con.high == pytest.approx(3.0 - 2.0)
        rev_con = next(c for c in cons if c.u == "q")
        assert rev_con.low == pytest.approx(1.0 - 2.5)
        assert rev_con.high == pytest.approx(3.0 - 2.5)

    def test_silent_directions_yield_no_constraints(self):
        a = BoundedDelay.symmetric(1.0, 3.0)
        assert assumption_constraints(a, "p", "q", [], []) == []

    def test_bias_constraints(self):
        a = RoundTripBias(1.0)
        cons = assumption_constraints(a, "p", "q", fwd=[10.0], rev=[10.4])
        # One two-sided bias constraint + two non-negativity constraints.
        assert len(cons) == 3
        bias_con = cons[0]
        assert bias_con.low == pytest.approx((-1.0 - 10.0 + 10.4) / 2)
        assert bias_con.high == pytest.approx((1.0 - 10.0 + 10.4) / 2)

    def test_composite_concatenates(self):
        comp = Composite.of(
            BoundedDelay.symmetric(1.0, 3.0), lower_bounds_only(0.5)
        )
        cons = assumption_constraints(comp, "p", "q", [2.0], [2.0])
        assert len(cons) == 4

    def test_unknown_assumption_type_rejected(self):
        class Weird(RoundTripBias.__bases__[0]):  # DelayAssumption
            def terms(self):
                return (Term.lower(0.0),)

            def admits(self, forward, reverse):
                return True

            def flipped(self):
                return self

        with pytest.raises(LPError):
            assumption_constraints(Weird(), "p", "q", [1.0], [1.0])


class TestLpOptimalCorrections:
    def test_hand_instance(self):
        ms = {(0, 1): 3.0, (1, 0): -1.0, (0, 0): 0.0, (1, 1): 0.0}
        corrections, eps = lp_optimal_corrections([0, 1], ms)
        assert eps == pytest.approx(1.0)
        assert rho_bar(ms, corrections) == pytest.approx(1.0)
        assert corrections[0] == pytest.approx(0.0)  # root pinned

    def test_infinite_pair_rejected(self):
        with pytest.raises(LPError, match="infinite"):
            lp_optimal_corrections([0, 1], {(0, 1): 1.0, (1, 0): INF})

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_karp_on_simulations(self, seed):
        scenario = bounded_uniform(ring(5), lb=1.0, ub=3.0, seed=seed)
        result = ClockSynchronizer(scenario.system).from_execution(
            scenario.run()
        )
        _, eps = lp_optimal_corrections(
            list(scenario.system.processors), result.ms_tilde
        )
        assert eps == pytest.approx(result.precision, abs=1e-7)


class TestLpMsTilde:
    @pytest.mark.parametrize(
        "make_scenario",
        [
            lambda seed: bounded_uniform(line(4), lb=1.0, ub=4.0, seed=seed),
            lambda seed: round_trip_bias(line(4), bias=1.0, seed=seed),
            lambda seed: heterogeneous(line(4), seed=seed),
        ],
        ids=["bounded", "bias", "hetero"],
    )
    def test_matches_global_estimates(self, make_scenario):
        scenario = make_scenario(1)
        alpha = scenario.run()
        result = ClockSynchronizer(scenario.system).from_execution(alpha)
        lp_ms = lp_ms_tilde(scenario.system, alpha.views())
        for pair, value in result.ms_tilde.items():
            other = lp_ms[pair]
            if value == INF or other == INF:
                assert value == other, pair
            else:
                assert other == pytest.approx(value, abs=1e-6), pair

    def test_unbounded_direction_detected(self):
        scenario = bounded_uniform(line(2), lb=1.0, ub=3.0, seed=0)
        alpha = scenario.run()
        # Re-declare the system with no upper bounds and drop the reverse
        # traffic from the constraint set by rebuilding views... simpler:
        # a no-bounds system where only one direction spoke.
        from repro.delays.bounds import no_bounds
        from repro.delays.system import System

        from conftest import make_two_node_execution

        system = System.uniform(line(2), no_bounds())
        alpha = make_two_node_execution(0.0, 0.0, [2.0], [])
        lp_ms = lp_ms_tilde(system, alpha.views())
        assert lp_ms[(0, 1)] == pytest.approx(2.0)
        assert lp_ms[(1, 0)] == INF


class TestSystemConstraints:
    def test_counts(self):
        scenario = bounded_uniform(line(3), lb=1.0, ub=3.0, probes=2, seed=0)
        alpha = scenario.run()
        cons = system_constraints(scenario.system, alpha.views())
        # Two links, traffic both ways on each: 2 constraints per link.
        assert len(cons) == 4
