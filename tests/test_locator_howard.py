"""Howard's policy iteration as the SHIFTS cycle locator.

On integer-valued matrices every cycle sum is exact and each mean is
correctly rounded, so tied cycles have bit-equal means: Howard's cycle,
Karp's cycle and the brute-force maximum must agree exactly.  Past its
iteration cap Howard falls back to Karp, and the served SHIFTS answer
must not depend on which of the two located the candidate.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import repro.engine.numpy_backend as numpy_backend
from repro.engine.numpy_backend import (
    NumpyEngine,
    cycle_mean,
    howard_cycle,
    karp_cycle,
)
from repro.engine.stats import EngineStats
from repro.obs.metrics import MetricsRegistry

from oracles import enumerate_simple_cycle_means

INF = float("inf")


@st.composite
def locator_matrices(draw, sparse=None):
    """An integer matrix, complete or a ring plus random chords (``inf``
    for an absent edge) -- strongly connected either way."""
    n = draw(st.integers(min_value=2, max_value=7))
    matrix = np.array(draw(st.lists(
        st.integers(min_value=-50, max_value=50),
        min_size=n * n, max_size=n * n,
    )), dtype=float).reshape(n, n)
    if sparse if sparse is not None else draw(st.booleans()):
        keep = np.array(draw(st.lists(
            st.booleans(), min_size=n * n, max_size=n * n
        ))).reshape(n, n)
        order = draw(st.permutations(range(n)))
        for i in range(n):
            keep[order[i], order[(i + 1) % n]] = True
        matrix[~keep] = INF
    return matrix


def shifts_digest(outcome):
    return (
        outcome.a_max.hex(),
        [value.hex() for value in outcome.corrections.tolist()],
        outcome.cycle_rows,
    )


@settings(max_examples=300, deadline=None)
@given(locator_matrices())
def test_howard_karp_and_brute_force_agree_exactly(matrix):
    best = max(mean for mean, _ in enumerate_simple_cycle_means(
        matrix.tolist()
    ))
    howard = cycle_mean(matrix, howard_cycle(matrix))
    assert howard == cycle_mean(matrix, karp_cycle(matrix)) == best
    # Howard's own fixpoint, not its fallback: under a generous cap it
    # converges.  Diagnosis negates sparse matrices, so absent edges
    # arrive as -inf there.
    stats = EngineStats(MetricsRegistry())
    negative = np.where(np.isfinite(matrix), matrix, -INF)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(numpy_backend, "_HOWARD_ITERATIONS_PER_ROW", 10)
        assert cycle_mean(matrix, howard_cycle(negative, stats)) == best
    assert stats.counters["shifts.locator_fallbacks"] == 0


@settings(max_examples=200, deadline=None)
@given(locator_matrices(sparse=False))
def test_capped_howard_falls_back_to_karp(matrix):
    engine = NumpyEngine()
    expected = shifts_digest(engine.shifts(matrix))
    assert engine.stats.counters["shifts.locator_iterations"] >= 1

    capped, calls = NumpyEngine(), []
    karp = numpy_backend.karp_cycle

    def spied(weights):
        calls.append(1)
        return karp(weights)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(numpy_backend, "_HOWARD_ITERATIONS_PER_ROW", 0)
        patch.setattr(numpy_backend, "karp_cycle", spied)
        served = shifts_digest(capped.shifts(matrix))
    assert served == expected
    assert calls == [1]
    assert capped.stats.counters["shifts.locator_fallbacks"] == 1
    assert capped.stats.counters.get("shifts.locator_iterations", 0) == 0


def test_none_below_two_rows():
    assert howard_cycle(np.zeros((0, 0))) is None
    assert howard_cycle(np.zeros((1, 1))) is None
