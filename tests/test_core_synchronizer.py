"""Integration tests for the synchronizer facade (repro.core.synchronizer)."""

import pytest

from repro._types import INF
from repro.core.precision import realized_spread
from repro.core.synchronizer import ClockSynchronizer
from repro.delays.bounds import BoundedDelay, no_bounds
from repro.delays.system import System
from repro.graphs.topology import line, ring
from repro.model.execution import shift_execution
from repro.workloads.scenarios import bounded_uniform, heterogeneous

from conftest import make_two_node_execution


class TestPipelineOnHandExecutions:
    def test_two_node_symmetric_midpoint_case(self):
        """Delays exactly 2.0 each way under [1, 3]: optimal precision is
        (ub - lb)/2 = 1.0 and corrected starts coincide exactly."""
        system = System.uniform(line(2), BoundedDelay.symmetric(1.0, 3.0))
        alpha = make_two_node_execution(5.0, 8.0, [2.0], [2.0])
        result = ClockSynchronizer(system).from_execution(alpha)
        assert result.precision == pytest.approx(1.0)
        assert realized_spread(
            alpha.start_times(), result.corrections
        ) == pytest.approx(0.0)

    def test_two_node_tight_delays(self):
        """Delays at the bounds pin the execution: precision 0... not
        quite -- delays at lb both ways still allow shifting within
        (ub - lb); check the exact formula instead."""
        system = System.uniform(line(2), BoundedDelay.symmetric(1.0, 3.0))
        alpha = make_two_node_execution(0.0, 0.0, [1.0], [3.0])
        # mls(0,1) = min(3-3, 1-1) = 0; mls(1,0) = min(3-1, 3-1) = 2.
        # A^max = (0 + 2)/2 = 1.
        result = ClockSynchronizer(system).from_execution(alpha)
        assert result.precision == pytest.approx(1.0)

    def test_perfectly_constrained_execution(self):
        """lb == ub: delays carry full information, precision is 0."""
        system = System.uniform(line(2), BoundedDelay.symmetric(2.0, 2.0))
        alpha = make_two_node_execution(3.0, 9.0, [2.0], [2.0])
        result = ClockSynchronizer(system).from_execution(alpha)
        assert result.precision == pytest.approx(0.0)
        assert realized_spread(
            alpha.start_times(), result.corrections
        ) == pytest.approx(0.0)


class TestClaim31:
    """Corrections are a function of views only."""

    def test_equivalent_executions_get_identical_results(self):
        scenario = bounded_uniform(ring(5), lb=1.0, ub=3.0, seed=8)
        alpha = scenario.run()
        sync = ClockSynchronizer(scenario.system)
        base = sync.from_execution(alpha)

        shifted = shift_execution(alpha, {0: 0.3, 2: -0.1, 4: 0.05})
        again = sync.from_execution(shifted)
        assert again.corrections == pytest.approx(base.corrections)
        assert again.precision == pytest.approx(base.precision)
        assert again.ms_tilde == pytest.approx(base.ms_tilde)


class TestComponents:
    def test_disconnected_info_splits_components(self):
        system = System.uniform(line(3), no_bounds())
        # Traffic only on link (0,1), both ways; link (1,2) silent.
        alpha = make_two_node_execution(0.0, 0.0, [2.0], [2.0])
        # Extend to 3 processors: give 2 an empty-but-started history.
        from conftest import build_history

        histories = dict(alpha.histories)
        histories[2] = build_history(2, 0.0, [], [])
        from repro.model.execution import Execution

        alpha3 = Execution(histories)
        result = ClockSynchronizer(system).from_execution(alpha3)
        assert result.precision == INF
        assert not result.is_fully_synchronized
        assert len(result.components) == 2
        sizes = sorted(len(c.processors) for c in result.components)
        assert sizes == [1, 2]
        # The 2-processor component still has a finite certified precision.
        big = max(result.components, key=lambda c: len(c.processors))
        assert big.precision == pytest.approx(2.0)  # dmin each way = 2.0

    def test_missing_views_rejected(self):
        scenario = bounded_uniform(ring(4), lb=1.0, ub=3.0, seed=0)
        alpha = scenario.run()
        views = alpha.views()
        del views[2]
        with pytest.raises(ValueError, match="missing"):
            ClockSynchronizer(scenario.system).from_views(views)

    def test_unknown_root_rejected(self):
        scenario = bounded_uniform(ring(4), lb=1.0, ub=3.0, seed=0)
        with pytest.raises(ValueError, match="root"):
            ClockSynchronizer(scenario.system, root=77)

    def test_requested_root_used(self):
        scenario = bounded_uniform(ring(4), lb=1.0, ub=3.0, seed=0)
        alpha = scenario.run()
        result = ClockSynchronizer(scenario.system, root=3).from_execution(
            alpha
        )
        assert result.components[0].root == 3
        assert result.corrections[3] == pytest.approx(0.0)


class TestGracefulDegradation:
    """allow_partial: incomplete views degrade, never lie (ISSUE 5)."""

    @pytest.fixture
    def crashed(self):
        """A ring-4 run whose processor 2 lost its view entirely."""
        scenario = bounded_uniform(ring(4), lb=1.0, ub=3.0, seed=0)
        alpha = scenario.run()
        views = alpha.views()
        del views[2]
        return scenario, alpha, views

    def test_partial_views_accepted_and_accounted(self, crashed):
        scenario, _, views = crashed
        result = ClockSynchronizer(scenario.system).from_views(
            views, allow_partial=True
        )
        assert result.is_degraded
        assert result.degraded.missing_views == (2,)
        # Receives of messages 2 sent survive in the other views but
        # their sends are lost: skipped and counted, not raised.
        assert result.degraded.orphan_receives > 0
        # Both of 2's links lost all samples, so 2 ends up alone.
        assert result.degraded.isolated_processors == (2,)
        assert len(result.components) == 2

    def test_degraded_corrections_stay_sound(self, crashed):
        """The surviving component's certified precision still covers the
        realized spread of its processors -- degradation is conservative."""
        scenario, alpha, views = crashed
        result = ClockSynchronizer(scenario.system).from_views(
            views, allow_partial=True
        )
        survivors = max(
            result.components, key=lambda c: len(c.processors)
        )
        assert set(survivors.processors) == {0, 1, 3}
        assert survivors.precision != INF
        starts = {
            p: t
            for p, t in alpha.start_times().items()
            if p in survivors.processors
        }
        corrections = {
            p: result.corrections[p] for p in survivors.processors
        }
        assert (
            realized_spread(starts, corrections)
            <= survivors.precision + 1e-9
        )

    def test_partial_estimated_delays_counts_orphans(self, crashed):
        from repro.core.estimates import (
            estimated_delays,
            partial_estimated_delays,
        )

        scenario, alpha, views = crashed
        full = estimated_delays(alpha.views())
        delays, orphans = partial_estimated_delays(views)
        sent_by_2 = sum(
            len(values) for edge, values in full.items() if edge[0] == 2
        )
        assert orphans == sent_by_2 > 0
        # Surviving edges keep exactly their fault-free samples.
        assert delays == {
            edge: values for edge, values in full.items() if 2 not in edge
        }

    def test_clean_run_is_not_degraded(self):
        scenario = bounded_uniform(ring(4), lb=1.0, ub=3.0, seed=0)
        result = ClockSynchronizer(scenario.system).from_execution(
            scenario.run()
        )
        assert not result.is_degraded
        assert result.degraded is None

    def test_root_substitution_is_recorded(self, crashed):
        scenario, _, views = crashed
        result = ClockSynchronizer(scenario.system, root=2).from_views(
            views, allow_partial=True
        )
        (substitution,) = [
            s for s in result.degraded.root_substitutions if s[0] == 2
        ]
        assert substitution[1] in {0, 1, 3}

    def test_degraded_lines_describe_the_damage(self, crashed):
        scenario, _, views = crashed
        result = ClockSynchronizer(scenario.system).from_views(
            views, allow_partial=True
        )
        text = "\n".join(result.degraded.lines())
        assert "orphan" in text
        assert "isolated" in text


class TestSyncResultHelpers:
    def test_corrected_clock(self):
        scenario = bounded_uniform(ring(4), lb=1.0, ub=3.0, seed=1)
        result = ClockSynchronizer(scenario.system).from_execution(
            scenario.run()
        )
        p = 2
        assert result.corrected_clock(p, 10.0) == pytest.approx(
            10.0 + result.corrections[p]
        )

    def test_pair_precision_bounded_by_global(self):
        scenario = heterogeneous(ring(5), seed=2)
        result = ClockSynchronizer(scenario.system).from_execution(
            scenario.run()
        )
        procs = list(scenario.system.processors)
        for p in procs:
            for q in procs:
                if p != q:
                    assert (
                        result.pair_precision(p, q)
                        <= result.precision + 1e-9
                    )

    def test_guaranteed_rho_bar_equals_precision(self):
        scenario = bounded_uniform(ring(5), lb=1.0, ub=3.0, seed=5)
        result = ClockSynchronizer(scenario.system).from_execution(
            scenario.run()
        )
        assert result.guaranteed_rho_bar() == pytest.approx(result.precision)

    def test_realized_spread_within_precision(self):
        for seed in range(3):
            scenario = bounded_uniform(ring(5), lb=1.0, ub=3.0, seed=seed)
            alpha = scenario.run()
            result = ClockSynchronizer(scenario.system).from_execution(alpha)
            assert (
                realized_spread(alpha.start_times(), result.corrections)
                <= result.precision + 1e-9
            )
