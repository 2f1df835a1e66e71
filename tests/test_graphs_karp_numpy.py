"""Tests for the numpy Karp kernel the engine runs
(repro.engine.numpy_backend.karp_cycle, whose cycle's mean is the
maximum cycle mean) and its
critical-cycle witness (tight_cycle under the step-2 distances),
cross-checked against the scalar Karp reference
(repro.engine.python_backend)."""

import random

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.engine.numpy_backend import (
    NumpyEngine,
    cycle_mean,
    karp_cycle,
    shift_distances,
    tight_cycle,
)
from repro.engine.python_backend import karp_max_cycle_mean

from oracles import INF, matrix_from_edges
from oracles import cycle_mean as list_cycle_mean


def to_matrix(g) -> np.ndarray:
    """Dense numpy weight matrix of the list matrix ``g``."""
    return np.array(g, dtype=float).reshape(len(g), len(g))


def witness(weights, mean):
    """The engine's witness: a tight cycle under the distances from row 0."""
    dist, nudges = shift_distances(weights, mean, 0)
    return tight_cycle(weights, mean, dist, nudges)


def random_strong_graph(rng, n, density=0.4):
    """Random digraph made strongly connected by a Hamiltonian ring.

    The matrix kernel walks from row 0 and so assumes strong
    connectivity -- which every all-finite ms~ submatrix has.
    """
    g = [[INF] * n for _ in range(n)]
    for u in range(n):
        for v in range(n):
            if u != v and (v == (u + 1) % n or rng.random() < density):
                g[u][v] = rng.uniform(-5.0, 5.0)
    return g


class TestKnownInstances:
    def test_two_cycles(self):
        g = matrix_from_edges(
            [(0, 1, 2.0), (1, 0, 4.0), (1, 2, 1.0), (2, 0, 3.0)]
        )
        weights = to_matrix(g)
        assert cycle_mean(weights, karp_cycle(weights)) == pytest.approx(3.0)

    def test_acyclic(self):
        g = matrix_from_edges([(0, 1, 1.0), (1, 2, 1.0)])
        assert karp_cycle(to_matrix(g)) is None

    def test_empty(self):
        assert karp_cycle(np.zeros((0, 0))) is None
        assert karp_cycle(np.zeros((1, 1))) is None

    def test_self_loop(self):
        """The diagonal is ignored: ms~ digraphs have no self-loops."""
        g = matrix_from_edges(
            [(0, 0, 7.0), (0, 1, 1.0), (1, 0, 1.0)]
        )
        weights = to_matrix(g)
        assert cycle_mean(weights, karp_cycle(weights)) == pytest.approx(1.0)

    def test_witness_achieves_mean(self):
        g = matrix_from_edges(
            [(0, 1, 2.0), (1, 0, 4.0), (1, 2, 1.0), (2, 0, 3.0)]
        )
        weights = to_matrix(g)
        mean = cycle_mean(weights, karp_cycle(weights))
        cycle = witness(weights, mean)
        assert list_cycle_mean(g, cycle) == pytest.approx(mean)


class TestCrossValidation:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_scalar_karp(self, seed):
        rng = random.Random(seed)
        for _ in range(30):
            g = random_strong_graph(rng, rng.randrange(2, 10))
            weights = to_matrix(g)
            mean = cycle_mean(weights, karp_cycle(weights))
            assert mean == pytest.approx(
                karp_max_cycle_mean(g), abs=1e-9
            )
            cycle = witness(weights, mean)
            assert list_cycle_mean(g, cycle) == pytest.approx(mean, abs=1e-9)

    def test_dense_large(self):
        rng = random.Random(9)
        g = random_strong_graph(rng, 30, density=1.0)
        weights = to_matrix(g)
        assert cycle_mean(weights, karp_cycle(weights)) == pytest.approx(
            karp_max_cycle_mean(g), abs=1e-9
        )


@st.composite
def complete_matrices(draw):
    k = draw(st.integers(min_value=2, max_value=12))
    values = draw(st.lists(
        st.floats(min_value=-100.0, max_value=100.0,
                  allow_nan=False, allow_infinity=False),
        min_size=k * k, max_size=k * k,
    ))
    return np.array(values).reshape(k, k)


class TestWitnessProperty:
    @settings(max_examples=200, deadline=None)
    @given(complete_matrices())
    def test_witness_is_a_critical_simple_cycle(self, matrix):
        """On any all-finite matrix the engine's witness is a simple cycle
        of off-diagonal edges whose mean is Karp's maximum cycle mean, and
        the served A^max is exactly that cycle's left-to-right mean from
        its smallest row."""
        outcome = NumpyEngine().shifts(matrix)
        cycle = outcome.cycle_rows
        assert cycle is not None and len(cycle) >= 2
        assert len(set(cycle)) == len(cycle)
        edges = list(zip(cycle, cycle[1:] + cycle[:1]))
        assert all(u != v and np.isfinite(matrix[u, v]) for u, v in edges)
        mean = sum(matrix[u, v] for u, v in edges) / len(edges)
        off_diagonal = matrix[~np.eye(len(matrix), dtype=bool)]
        scale = max(1.0, float(np.abs(off_diagonal).max()))
        karp_mean = cycle_mean(matrix, karp_cycle(matrix))
        assert abs(mean - karp_mean) <= 1e-9 * scale
        assert cycle[0] == min(cycle)
        assert outcome.a_max == mean


class TestShiftsBackend:
    def test_registered_and_consistent(self):
        """The numpy engine's SHIFTS agrees with the scalar reference."""
        from repro.engine import NumpyEngine, PythonEngine, available_backends

        assert "numpy" in available_backends()
        ms = {
            (0, 1): 2.0,
            (1, 2): 2.0,
            (2, 0): 2.0,
            (1, 0): 0.0,
            (2, 1): 0.0,
            (0, 2): 0.0,
        }
        matrix = np.zeros((3, 3))
        for (p, q), value in ms.items():
            matrix[p, q] = value
        reference = PythonEngine().shifts(matrix)
        engine = NumpyEngine().shifts(matrix)
        assert engine.a_max == pytest.approx(reference.a_max)
