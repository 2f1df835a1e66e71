"""Property-based tests for the optimality theorems (hypothesis).

Theorem 4.4/4.6 end to end: on random admissible ``ms~`` matrices, the
SHIFTS corrections of either engine backend achieve the maximum cycle mean exactly and no other
correction vector does better; on random simulated executions the
realized spread under any admissible re-timing stays within the claimed
precision.
"""

import random

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.analysis.adversary import random_admissible_shift_vector
from repro.analysis.ground_truth import shift_vector_is_admissible
from repro.core.precision import realized_spread, rho_bar
from repro.core.synchronizer import ClockSynchronizer
from repro.graphs.topology import ring
from repro.model.execution import shift_execution
from repro.workloads.scenarios import bounded_uniform

from oracles import ENGINES, run_shifts


def shifts(processors, ms_tilde):
    """SHIFTS on every backend: one outcome per engine."""
    return [run_shifts(engine, processors, ms_tilde) for engine in ENGINES]


@st.composite
def ms_matrices(draw, max_n=5):
    """Random ms~ matrices consistent with *some* execution.

    Generated the honest way: pick true non-negative local shifts and
    start times, then translate -- exactly how real ms~ arise.  This
    guarantees no negative cycles.
    """
    n = draw(st.integers(min_value=2, max_value=max_n))
    starts = [
        draw(st.floats(min_value=0.0, max_value=20.0, allow_nan=False))
        for _ in range(n)
    ]
    ms_true = {}
    for p in range(n):
        for q in range(n):
            if p != q:
                ms_true[(p, q)] = draw(
                    st.floats(min_value=0.0, max_value=5.0, allow_nan=False)
                )
    # Close under shortest paths so the matrix is a genuine distance-like
    # object (ms is one by Lemma 5.3).
    for k in range(n):
        for p in range(n):
            for q in range(n):
                if p != q and p != k and q != k:
                    via = ms_true[(p, k)] + ms_true[(k, q)]
                    if via < ms_true[(p, q)]:
                        ms_true[(p, q)] = via
    ms_tilde = {
        (p, q): v + starts[p] - starts[q] for (p, q), v in ms_true.items()
    }
    return list(range(n)), ms_tilde


class TestShiftsOptimality:
    @given(ms_matrices())
    @settings(max_examples=60, deadline=None)
    def test_achieves_claimed_precision(self, instance):
        processors, ms_tilde = instance
        for outcome in shifts(processors, ms_tilde):
            achieved = rho_bar(ms_tilde, outcome.corrections)
            scale = max(1.0, abs(outcome.precision))
            assert achieved <= outcome.precision + 1e-7 * scale

    @given(
        ms_matrices(),
        st.lists(
            st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
            min_size=2,
            max_size=5,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_no_correction_vector_beats_shifts(self, instance, raw):
        processors, ms_tilde = instance
        rival = {
            p: raw[i % len(raw)] for i, p in enumerate(processors)
        }
        for outcome in shifts(processors, ms_tilde):
            assert rho_bar(ms_tilde, rival) >= outcome.precision - 1e-7 * max(
                1.0, abs(outcome.precision)
            )

    @given(ms_matrices())
    @settings(max_examples=40, deadline=None)
    def test_critical_cycle_witnesses_precision(self, instance):
        processors, ms_tilde = instance
        for outcome in shifts(processors, ms_tilde):
            cycle = outcome.critical_cycle
            assert cycle is not None
            total = sum(
                ms_tilde[(cycle[i], cycle[(i + 1) % len(cycle)])]
                for i in range(len(cycle))
            )
            scale = max(1.0, abs(outcome.precision))
            assert abs(total / len(cycle) - outcome.precision) < 1e-7 * scale


class TestEndToEndSoundness:
    @given(st.integers(min_value=0, max_value=30))
    @settings(max_examples=15, deadline=None)
    def test_no_admissible_retiming_exceeds_precision(self, seed):
        scenario = bounded_uniform(ring(4), lb=1.0, ub=3.0, seed=seed)
        alpha = scenario.run()
        result = ClockSynchronizer(scenario.system).from_execution(alpha)
        rng = random.Random(seed)
        for _ in range(10):
            vec = random_admissible_shift_vector(scenario.system, alpha, rng)
            assert shift_vector_is_admissible(scenario.system, alpha, vec)
            spread = realized_spread(
                shift_execution(alpha, vec).start_times(), result.corrections
            )
            assert spread <= result.precision + 1e-6
