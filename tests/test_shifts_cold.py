"""SHIFTS on the numpy engine: one rule, checked exactly.

A cold solve locates a candidate cycle with Howard's policy iteration
and serves the one Bellman--Ford pass under that cycle's exact mean.  On
integer-valued matrices every cycle sum is exact and the division is
correctly rounded, so the served ``A^max`` must equal the brute-force
maximum cycle mean bit for bit, whether the solve starts cold or from a
stale hint.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import repro.engine.numpy_backend as numpy_backend
from repro.core.synchronizer import ClockSynchronizer
from repro.engine.numpy_backend import NumpyEngine, cycle_mean
from repro.graphs.topology import random_connected, ring
from repro.workloads.scenarios import heterogeneous

from oracles import enumerate_simple_cycle_means


@pytest.mark.parametrize("seed", range(1, 9))
def test_cold_solve_runs_one_bellman_ford_pass(seed, monkeypatch):
    scenario = heterogeneous(
        random_connected(128, 0.05, seed), seed=seed, probes=2
    )
    views = scenario.run().views()
    passes = []
    kernel = numpy_backend.bellman_ford_matrix

    def counted(*args, **kwargs):
        passes.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(numpy_backend, "bellman_ford_matrix", counted)
    result = ClockSynchronizer(scenario.system).from_views(views)
    solves = sum(len(c.processors) >= 2 for c in result.components)
    assert solves >= 1
    assert len(passes) == solves


@pytest.mark.parametrize("n", [8, 16, 24, 32, 48, 64])
@pytest.mark.parametrize("seed", range(6))
def test_no_pass_repeats_under_the_same_mean(n, seed, monkeypatch):
    """A located miss whose tight cycle has the pass's own mean is served:
    a retry would run the identical pass."""
    scenario = heterogeneous(ring(n), seed=seed, probes=2)
    views = scenario.run().views()
    means = []
    kernel = numpy_backend.shift_distances

    def spied(weights, a_max, root):
        means.append(a_max)
        return kernel(weights, a_max, root)

    monkeypatch.setattr(numpy_backend, "shift_distances", spied)
    ClockSynchronizer(scenario.system).from_views(views)
    assert means
    assert len(set(means)) == len(means)


@st.composite
def integer_matrices(draw):
    """An integer-valued complete matrix and a random simple cycle on it."""
    n = draw(st.integers(min_value=2, max_value=7))
    values = draw(st.lists(
        st.integers(min_value=-50, max_value=50),
        min_size=n * n, max_size=n * n,
    ))
    order = draw(st.permutations(range(n)))
    length = draw(st.integers(min_value=2, max_value=n))
    return np.array(values, dtype=float).reshape(n, n), list(order[:length])


def assert_exact(matrix, outcome):
    best = max(mean for mean, _ in enumerate_simple_cycle_means(
        matrix.tolist()
    ))
    assert outcome.a_max == best
    assert outcome.a_max == cycle_mean(matrix, list(outcome.cycle_rows))


class TestExactOracle:
    @settings(max_examples=300, deadline=None)
    @given(integer_matrices())
    def test_cold_a_max_is_the_exact_maximum(self, drawn):
        matrix, _ = drawn
        assert_exact(matrix, NumpyEngine().shifts(matrix))

    @settings(max_examples=300, deadline=None)
    @given(integer_matrices())
    def test_hinted_a_max_is_the_exact_maximum(self, drawn):
        matrix, hint = drawn
        engine = NumpyEngine()
        outcome = engine.shifts(matrix, hint=hint)
        assert_exact(matrix, outcome)
        counters = engine.stats.counters
        assert counters.get("shifts.warm_hits", 0) + counters.get(
            "shifts.warm_fallbacks", 0
        ) == 1
