"""Property test: the numpy engine is exchangeable with the reference.

Satellite of the engine-layer refactor: across ~50 seeded random
systems -- including negative ``mls~`` weights, sparse/disconnected
graphs, multi-component decompositions, and inconsistent views -- the
``"numpy"`` backend must agree with the ``"python"`` reference backend
on every observable of the pipeline:

* the ``ms~`` closure matrix (``A^max`` inputs),
* the synchronization components (sets *and* order),
* per-component ``A^max`` and corrections (up to root normalization,
  which both backends pin to ``x_root = 0``),
* the error behaviour (``InconsistentViewsError`` for negative cycles,
  ``UnboundedPrecisionError`` with the same offending pairs).

A second layer runs real simulated systems through the
:class:`~repro.core.synchronizer.ClockSynchronizer` facade with each
backend and requires *certified* results of identical precision.
"""

import random

import numpy as np
import pytest

from repro._types import INF
from repro.core.errors import InconsistentViewsError, UnboundedPrecisionError
from repro.core.optimality import verify_certificate
from repro.core.precision import rho_bar
from repro.core.synchronizer import ClockSynchronizer
from repro.engine import NumpyEngine, PythonEngine
from repro.graphs.topology import ring
from repro.workloads.scenarios import bounded_uniform, heterogeneous


def random_mls_matrix(rng, n, density, blocks=1):
    """Random negative-cycle-free mls~ matrix, optionally block-diagonal.

    Weights are ``u + y_i - y_j`` with slack ``u >= 0``: cycle weights
    telescope to the slack sum, so the instance is consistent, while the
    potentials ``y`` make plenty of individual weights negative.  With
    ``blocks > 1`` no edge crosses block boundaries, forcing multiple
    synchronization components.
    """
    y = [rng.uniform(-5.0, 5.0) for _ in range(n)]
    block_of = [i % blocks for i in range(n)]
    matrix = np.full((n, n), INF)
    np.fill_diagonal(matrix, 0.0)
    for i in range(n):
        for j in range(n):
            if (
                i != j
                and block_of[i] == block_of[j]
                and rng.random() < density
            ):
                matrix[i, j] = rng.uniform(0.0, 4.0) + y[i] - y[j]
    return matrix


def assert_engines_agree(mls):
    """Run both engines over one mls~ matrix and compare all observables."""
    python_engine, numpy_engine = PythonEngine(), NumpyEngine()
    ms_python = python_engine.global_estimates(mls)
    ms_numpy = numpy_engine.global_estimates(mls)
    assert np.allclose(ms_python, ms_numpy, atol=1e-9)  # inf == inf ok

    components_python = python_engine.components(mls, ms_python)
    components_numpy = numpy_engine.components(mls, ms_numpy)
    assert components_python == components_numpy

    for rows in components_python:
        out_python = python_engine.shifts(ms_python, rows=rows)
        out_numpy = numpy_engine.shifts(ms_numpy, rows=rows)
        assert out_numpy.a_max == pytest.approx(out_python.a_max, abs=1e-7)
        # Both pin the root (rows[0]) to zero; compare normalized anyway.
        norm_python = out_python.corrections - out_python.corrections[0]
        norm_numpy = out_numpy.corrections - out_numpy.corrections[0]
        assert np.allclose(norm_python, norm_numpy, atol=1e-7)
        if len(rows) > 1:
            assert out_python.cycle_rows is not None
            assert out_numpy.cycle_rows is not None
            for cycle in (out_python.cycle_rows, out_numpy.cycle_rows):
                assert set(cycle) <= set(rows)
                # The witness must achieve A^max on the shared ms~ matrix.
                k = len(cycle)
                total = sum(
                    ms_python[cycle[i], cycle[(i + 1) % k]] for i in range(k)
                )
                assert total / k == pytest.approx(out_python.a_max, abs=1e-6)


@pytest.mark.parametrize("seed", range(50))
def test_random_system_parity(seed):
    """~50 random instances: dense, sparse, and multi-block shapes."""
    rng = random.Random(seed)
    n = rng.randint(1, 14)
    blocks = 1 if seed % 3 else rng.randint(1, min(3, n))
    density = rng.uniform(0.4, 1.0)
    assert_engines_agree(random_mls_matrix(rng, n, density, blocks))


@pytest.mark.parametrize("seed", range(5))
def test_negative_cycle_parity(seed):
    """Inconsistent views raise the same error from both backends."""
    rng = random.Random(seed)
    n = rng.randint(3, 10)
    mls = random_mls_matrix(rng, n, density=0.8)
    # Plant a strictly negative 2-cycle.
    i, j = rng.sample(range(n), 2)
    mls[i, j] = -3.0
    mls[j, i] = 1.0
    for engine in (PythonEngine(), NumpyEngine()):
        with pytest.raises(InconsistentViewsError):
            engine.global_estimates(mls)


@pytest.mark.parametrize("seed", range(5))
def test_unbounded_pairs_parity(seed):
    """Asking SHIFTS to span components reports identical pairs."""
    rng = random.Random(seed)
    n = rng.randint(4, 10)
    mls = random_mls_matrix(rng, n, density=0.9, blocks=2)
    python_engine, numpy_engine = PythonEngine(), NumpyEngine()
    ms_python = python_engine.global_estimates(mls)
    ms_numpy = numpy_engine.global_estimates(mls)
    with pytest.raises(UnboundedPrecisionError) as err_python:
        python_engine.shifts(ms_python)
    with pytest.raises(UnboundedPrecisionError) as err_numpy:
        numpy_engine.shifts(ms_numpy)
    assert err_python.value.pairs == err_numpy.value.pairs
    assert err_python.value.pairs  # two blocks really are disconnected


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("make", [bounded_uniform, heterogeneous])
def test_synchronizer_backend_parity_certified(seed, make):
    """Full facade on simulated executions: both backends certify."""
    n = 5 + 2 * seed
    if make is bounded_uniform:
        scenario = make(ring(n), lb=1.0, ub=3.0, seed=seed)
    else:
        scenario = make(ring(n), seed=seed)
    views = scenario.run().views()
    results = {}
    for backend in ("python", "numpy"):
        sync = ClockSynchronizer(scenario.system, backend=backend)
        assert sync.backend == backend
        result = sync.from_views(views)
        verify_certificate(result)
        results[backend] = result
    python_result, numpy_result = results["python"], results["numpy"]
    assert numpy_result.precision == pytest.approx(
        python_result.precision, abs=1e-9
    )
    # numpy corrections are optimal under the reference ms~ too.
    assert rho_bar(
        python_result.ms_tilde, numpy_result.corrections
    ) == pytest.approx(python_result.precision, abs=1e-7)
