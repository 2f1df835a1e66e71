"""Small-system agreement: four independent routes to ``A^max``.

On random heterogeneous systems of at most six processors, every
synchronization component's optimal precision must come out the same
from

* the numpy engine (the production path),
* the scalar reference engine (``backend="python"``),
* brute force: the largest mean over every simple cycle of the
  component's ``ms~`` submatrix (:func:`oracles.enumerate_simple_cycle_means`),
* the Halpern--Megiddo--Munshi LP (:func:`lp_optimal_corrections`).

The four share no kernel, so a bug in any one of them shows up as a
disagreement.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.baselines.lp import lp_optimal_corrections
from repro.core.synchronizer import ClockSynchronizer
from repro.graphs.topology import random_connected
from repro.workloads.scenarios import heterogeneous

from oracles import enumerate_simple_cycle_means


@given(
    n=st.integers(min_value=2, max_value=6),
    density=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=40, deadline=None)
def test_a_max_agrees_across_engines_brute_force_and_lp(n, density, seed):
    topology = random_connected(n, density, seed=seed)
    scenario = heterogeneous(topology, seed=seed)
    views = scenario.run().views()
    numpy_result = ClockSynchronizer(scenario.system).from_views(views)
    python_result = ClockSynchronizer(
        scenario.system, backend="python"
    ).from_views(views)

    assert [c.processors for c in numpy_result.components] == [
        c.processors for c in python_result.components
    ]
    for ours, ref in zip(numpy_result.components, python_result.components):
        a_max = ours.precision
        scale = max(1.0, abs(a_max))
        assert abs(ref.precision - a_max) <= 1e-9 * scale
        if len(ours.processors) < 2:
            continue
        ms = numpy_result.ms_tilde
        sub = [[ms[(p, q)] for q in ours.processors] for p in ours.processors]
        brute = max(mean for mean, _ in enumerate_simple_cycle_means(sub))
        assert abs(brute - a_max) <= 1e-9 * scale
        _, epsilon = lp_optimal_corrections(ours.processors, ms)
        assert abs(epsilon - a_max) <= 1e-6 * scale
