"""Unit tests for GLOBAL ESTIMATES (``SyncEngine.global_estimates``) --
Lemma 5.3 and Theorem 5.5.  Every test runs against both engine
backends."""

import pytest

from repro._types import INF
from repro.analysis.ground_truth import true_global_shifts
from repro.core.errors import InconsistentViewsError
from repro.core.estimates import local_shift_estimates
from repro.delays.bounds import BoundedDelay
from repro.delays.system import System
from repro.engine import ProcessorIndex
from repro.graphs.topology import line
from repro.workloads.scenarios import bounded_uniform, heterogeneous

from conftest import make_two_node_execution
from oracles import ENGINES, run_closure


def global_estimates(processors, mls):
    """``ms~`` from every backend; the backends must agree."""
    first, *others = [
        run_closure(engine, processors, mls) for engine in ENGINES
    ]
    for other in others:
        assert other == pytest.approx(first)
    return first


class TestShiftGraph:
    def test_infinite_edges_dropped(self):
        """An infinite estimate imposes no constraint: it joins no
        component and never poisons a path sum."""
        mls = {(0, 1): 1.0, (1, 0): INF, (1, 2): 2.0}
        index = ProcessorIndex([0, 1, 2])
        for engine in ENGINES:
            matrix = index.matrix(mls)
            closure = engine.global_estimates(matrix)
            assert engine.components(matrix, closure) == [[0], [1], [2]]
        ms = global_estimates([0, 1, 2], mls)
        assert ms[(0, 2)] == pytest.approx(3.0)
        assert ms[(1, 0)] == INF


class TestGlobalEstimates:
    def test_single_link_passthrough(self):
        ms = global_estimates([0, 1], {(0, 1): 1.5, (1, 0): 0.5})
        assert ms[(0, 1)] == pytest.approx(1.5)
        assert ms[(1, 0)] == pytest.approx(0.5)
        assert ms[(0, 0)] == 0.0

    def test_path_is_summed(self):
        mls = {(0, 1): 1.0, (1, 0): 2.0, (1, 2): 3.0, (2, 1): 4.0}
        ms = global_estimates([0, 1, 2], mls)
        assert ms[(0, 2)] == pytest.approx(4.0)
        assert ms[(2, 0)] == pytest.approx(6.0)

    def test_shortcut_beats_long_path(self):
        mls = {
            (0, 1): 1.0,
            (1, 0): 1.0,
            (1, 2): 1.0,
            (2, 1): 1.0,
            (0, 2): 0.5,
            (2, 0): 10.0,
        }
        ms = global_estimates([0, 1, 2], mls)
        assert ms[(0, 2)] == pytest.approx(0.5)
        assert ms[(2, 0)] == pytest.approx(2.0)  # via 1, not the 10.0 edge

    def test_unreachable_pairs_are_infinite(self):
        ms = global_estimates([0, 1, 2], {(0, 1): 1.0, (1, 0): 1.0})
        assert ms[(0, 2)] == INF
        assert ms[(2, 1)] == INF
        assert ms[(2, 2)] == 0.0

    def test_negative_cycle_raises_inconsistent_views(self):
        # mls~(0,1) + mls~(1,0) < 0 cannot come from any admissible
        # execution (true mls are non-negative and cycles are invariant).
        for engine in ENGINES:
            with pytest.raises(InconsistentViewsError):
                run_closure(engine, [0, 1], {(0, 1): -2.0, (1, 0): 1.0})

    def test_negative_single_weights_fine(self):
        ms = global_estimates([0, 1], {(0, 1): -2.0, (1, 0): 3.0})
        assert ms[(0, 1)] == pytest.approx(-2.0)


class TestTheorem55:
    """ms~ from estimates vs ms from ground truth: translation identity."""

    def test_translation_identity_two_nodes(self):
        s_p, s_q = 2.0, 9.0
        system = System.uniform(line(2), BoundedDelay.symmetric(1.0, 3.0))
        alpha = make_two_node_execution(s_p, s_q, [1.5, 2.5], [2.0])
        mls_tilde = local_shift_estimates(system, alpha.views())
        ms_tilde = global_estimates([0, 1], mls_tilde)
        ms_true = true_global_shifts(system, alpha)
        assert ms_tilde[(0, 1)] == pytest.approx(ms_true[(0, 1)] + s_p - s_q)
        assert ms_tilde[(1, 0)] == pytest.approx(ms_true[(1, 0)] + s_q - s_p)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_translation_identity_simulated_ring(self, seed):
        scenario = bounded_uniform(
            __import__("repro.graphs", fromlist=["ring"]).ring(5),
            lb=1.0,
            ub=3.0,
            seed=seed,
        )
        alpha = scenario.run()
        system = scenario.system
        starts = alpha.start_times()
        mls_tilde = local_shift_estimates(system, alpha.views())
        ms_tilde = global_estimates(list(system.processors), mls_tilde)
        ms_true = true_global_shifts(system, alpha)
        for p in system.processors:
            for q in system.processors:
                expected = ms_true[(p, q)] + starts[p] - starts[q]
                assert ms_tilde[(p, q)] == pytest.approx(expected), (p, q)

    def test_triangle_inequality_of_ms(self):
        scenario = heterogeneous(
            __import__("repro.graphs", fromlist=["ring"]).ring(6), seed=3
        )
        alpha = scenario.run()
        mls_tilde = local_shift_estimates(scenario.system, alpha.views())
        ms = global_estimates(
            list(scenario.system.processors), mls_tilde
        )
        procs = list(scenario.system.processors)
        for a in procs:
            for b in procs:
                for c in procs:
                    if INF in (ms[(a, b)], ms[(b, c)]):
                        continue
                    assert ms[(a, c)] <= ms[(a, b)] + ms[(b, c)] + 1e-9
