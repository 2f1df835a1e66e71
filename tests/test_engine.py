"""Unit tests for the matrix engine layer (repro.engine).

Covers the ProcessorIndex row mapping, the EngineStats hooks, backend
selection by name (numpy at every size), the numpy kernels against the
scalar reference kernels,
the shared argument validation of the engine base class, and the
incremental closure update of the numpy backend.
"""

import random

import numpy as np
import pytest

from repro._types import INF
from repro.core.errors import InconsistentViewsError, UnboundedPrecisionError
from repro.core.synchronizer import ClockSynchronizer
from repro.delays.bounds import BoundedDelay
from repro.delays.system import System
from repro.engine import (
    NumpyEngine,
    ProcessorIndex,
    PythonEngine,
    available_backends,
    create_engine,
)
from repro.engine.numpy_backend import (
    bellman_ford_matrix,
    cycle_mean,
    has_negative_diagonal,
    karp_cycle,
    min_plus_closure,
)
from repro.engine.python_backend import (
    bellman_ford,
    floyd_warshall,
    karp_max_cycle_mean,
)
from repro.engine.stats import EngineStats
from repro.graphs.topology import complete, ring


def potentials_matrix(rng, n, density=1.0, lo=0.0, hi=4.0):
    """Random mls~-style matrix guaranteed free of negative cycles.

    ``w(i, j) = u(i, j) + y_i - y_j`` with slack ``u >= lo >= 0``: every
    cycle's weight telescopes to the sum of its slacks, hence >= 0.
    Returns ``(matrix, slack)`` so tests can shrink weights safely.
    """
    y = [rng.uniform(-5.0, 5.0) for _ in range(n)]
    matrix = np.full((n, n), INF)
    np.fill_diagonal(matrix, 0.0)
    slack = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < density:
                slack[i, j] = rng.uniform(lo, hi)
                matrix[i, j] = slack[i, j] + y[i] - y[j]
    return matrix, slack


# ----------------------------------------------------------------------
# ProcessorIndex
# ----------------------------------------------------------------------


class TestProcessorIndex:
    def test_row_processor_roundtrip(self):
        index = ProcessorIndex(["c", "a", "b"])
        assert len(index) == 3
        assert list(index) == ["c", "a", "b"]
        assert index.processors == ("c", "a", "b")
        for i, p in enumerate(["c", "a", "b"]):
            assert index.row(p) == i
            assert index.processor(i) == p
        assert "a" in index and "z" not in index
        assert index.rows(["b", "c"]) == [2, 0]
        assert index.pair_rows([("a", "b"), ("b", "c")]) == [(1, 2), (2, 0)]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ProcessorIndex(["a", "b", "a"])

    def test_matrix_defaults_and_diagonal(self):
        index = ProcessorIndex([0, 1, 2])
        m = index.matrix({(0, 1): 2.5, (1, 0): -1.0})
        assert m[0, 1] == 2.5 and m[1, 0] == -1.0
        assert m[0, 2] == INF and m[2, 1] == INF
        assert m[0, 0] == m[1, 1] == m[2, 2] == 0.0

    def test_matrix_self_pair_takes_min(self):
        index = ProcessorIndex([0, 1])
        assert index.matrix({(0, 0): 3.0})[0, 0] == 0.0  # inert self-loop
        assert index.matrix({(0, 0): -2.0})[0, 0] == -2.0  # negative cycle

    def test_pairs_roundtrip(self):
        index = ProcessorIndex(["p", "q"])
        pairs = {("p", "q"): 1.5, ("q", "p"): INF}
        m = index.matrix(pairs)
        out = index.pairs(m)
        assert out[("p", "q")] == 1.5
        assert out[("q", "p")] == INF
        assert out[("p", "p")] == 0.0 and out[("q", "q")] == 0.0

    def test_pairs_shape_mismatch(self):
        index = ProcessorIndex(["p", "q"])
        with pytest.raises(ValueError, match="shape"):
            index.pairs(np.zeros((3, 3)))


# ----------------------------------------------------------------------
# EngineStats
# ----------------------------------------------------------------------


class TestEngineStats:
    def test_stage_accumulates_time_and_calls(self):
        stats = EngineStats()
        for _ in range(3):
            with stats.stage("closure"):
                pass
        assert stats.counters["closure.calls"] == 3
        assert stats.timings["closure"] >= 0.0
        assert stats.total_seconds() == pytest.approx(
            sum(stats.timings.values())
        )

    def test_counters_and_reset(self):
        stats = EngineStats()
        stats.count("nudges")
        stats.count("nudges", 4)
        assert stats.counters == {"nudges": 5}
        snap = stats.snapshot()
        assert snap["counters"]["nudges"] == 5
        stats.reset()
        assert stats.timings == {} and stats.counters == {}

    def test_engine_records_stage_stats(self):
        engine = NumpyEngine()
        mls, _ = potentials_matrix(random.Random(0), 6)
        ms = engine.global_estimates(mls)
        engine.components(mls, ms)
        engine.shifts(ms)
        stats = engine.stats
        assert stats.counters["global_estimates.calls"] == 1
        assert set(stats.timings) >= {
            "global_estimates",
            "components",
            "shifts",
        }


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


class TestRegistry:
    def test_available_backends(self):
        assert available_backends() == ["numpy", "python"]

    @pytest.mark.parametrize("n", [1, 2, 4, 11, 12])
    def test_numpy_at_every_size(self, n):
        topology = complete(n) if n < 3 else ring(n)
        system = System.uniform(topology, BoundedDelay.symmetric(1.0, 3.0))
        assert ClockSynchronizer(system).backend == "numpy"

    def test_unknown_backend_rejected(self):
        system = System.uniform(ring(4), BoundedDelay.symmetric(1.0, 3.0))
        for name in ("auto", "cuda"):
            with pytest.raises(ValueError, match="unknown engine backend"):
                create_engine(name)
            with pytest.raises(ValueError, match="unknown engine backend"):
                ClockSynchronizer(system, backend=name)

    def test_create_engine(self):
        assert isinstance(create_engine("python"), PythonEngine)
        assert isinstance(create_engine("numpy"), NumpyEngine)
        assert isinstance(create_engine(), NumpyEngine)


# ----------------------------------------------------------------------
# numpy kernels vs the scalar reference kernels
# ----------------------------------------------------------------------


class TestKernels:
    @pytest.mark.parametrize("seed", range(5))
    def test_min_plus_closure_matches_floyd_warshall(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 10)
        mls, _ = potentials_matrix(rng, n, density=0.6)
        dist = floyd_warshall(mls.tolist())
        closure = min_plus_closure(mls)
        for i in range(n):
            for j in range(n):
                assert closure[i, j] == pytest.approx(dist[i][j], abs=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_karp_matrix_matches_graph_karp(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 10)
        weights = np.array(
            [[rng.uniform(-3.0, 5.0) for _ in range(n)] for _ in range(n)]
        )
        oracle = karp_max_cycle_mean(weights.tolist())
        assert cycle_mean(weights, karp_cycle(weights)) == pytest.approx(
            oracle, abs=1e-9
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_bellman_ford_matrix_matches_graph(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 10)
        weights, _ = potentials_matrix(rng, n, density=0.8)
        dist = bellman_ford(weights.tolist(), 0)
        vec = bellman_ford_matrix(weights, 0)
        assert vec is not None
        for j in range(n):
            assert vec[j] == pytest.approx(dist[j], abs=1e-9)

    def test_bellman_ford_matrix_negative_cycle(self):
        weights = np.array([[0.0, -2.0], [1.0, 0.0]])
        assert bellman_ford_matrix(weights, 0) is None

    def test_has_negative_diagonal(self):
        m = np.zeros((3, 3))
        assert not has_negative_diagonal(m)
        m[1, 1] = -1e-6
        assert has_negative_diagonal(m)


# ----------------------------------------------------------------------
# Base-class validation shared by every backend
# ----------------------------------------------------------------------


@pytest.mark.parametrize("engine_cls", [PythonEngine, NumpyEngine])
class TestEngineValidation:
    def test_non_square_rejected(self, engine_cls):
        with pytest.raises(ValueError, match="square"):
            engine_cls().global_estimates(np.zeros((2, 3)))

    def test_bad_rows_rejected(self, engine_cls):
        ms = np.zeros((3, 3))
        with pytest.raises(ValueError, match="no rows"):
            engine_cls().shifts(ms, rows=[])
        with pytest.raises(ValueError, match="root row"):
            engine_cls().shifts(ms, rows=[0, 1], root_row=2)

    def test_single_row_shortcut(self, engine_cls):
        ms = np.full((3, 3), INF)
        np.fill_diagonal(ms, 0.0)
        outcome = engine_cls().shifts(ms, rows=[1])
        assert outcome.a_max == 0.0
        assert outcome.cycle_rows is None
        assert list(outcome.corrections) == [0.0]

    def test_unbounded_pairs_reported(self, engine_cls):
        ms = np.array([[0.0, INF], [1.0, 0.0]])
        with pytest.raises(UnboundedPrecisionError) as err:
            engine_cls().shifts(ms)
        assert err.value.pairs == [(0, 1)]

    def test_negative_cycle_raises_inconsistent(self, engine_cls):
        mls = np.array([[0.0, -3.0], [1.0, 0.0]])
        with pytest.raises(InconsistentViewsError):
            engine_cls().global_estimates(mls)


# ----------------------------------------------------------------------
# Incremental closure update (numpy backend)
# ----------------------------------------------------------------------


class TestIncrementalUpdate:
    def test_python_backend_has_no_incremental_path(self):
        ms = np.zeros((2, 2))
        assert PythonEngine().incremental_update(ms, [(0, 1, -1.0)]) is None

    @pytest.mark.parametrize("seed", range(10))
    def test_incremental_matches_full_closure(self, seed):
        """Decreasing mls~ entries then repairing == recomputing."""
        rng = random.Random(seed)
        n = rng.randint(3, 12)
        mls, slack = potentials_matrix(rng, n, density=0.8, lo=0.5)
        engine = NumpyEngine()
        ms = engine.global_estimates(mls)

        new_mls = mls.copy()
        changes = []
        edges = [
            (i, j)
            for i in range(n)
            for j in range(n)
            if i != j and np.isfinite(mls[i, j])
        ]
        for i, j in rng.sample(edges, min(4, len(edges))):
            # Shrink within the slack: cycle weights stay non-negative.
            new_mls[i, j] -= rng.uniform(0.0, slack[i, j])
            changes.append((i, j, float(new_mls[i, j])))

        repair = engine.incremental_update(ms, changes)
        expected = engine.global_estimates(new_mls)
        assert repair is not None
        repaired, lowered = repair
        assert np.allclose(repaired, expected, atol=1e-9)
        # The reported cells are exactly those the repair lowered.
        assert lowered.tolist() == np.flatnonzero(repaired < ms).tolist()
        # The cached input must not have been mutated.
        assert np.array_equal(ms, engine.global_estimates(mls))

    def test_incremental_detects_negative_cycle(self):
        mls = np.array([[0.0, 1.0], [1.0, 0.0]])
        engine = NumpyEngine()
        ms = engine.global_estimates(mls)
        with pytest.raises(InconsistentViewsError):
            engine.incremental_update(ms, [(0, 1, -2.0)])
