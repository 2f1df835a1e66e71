"""Graph substrate: digraphs, shortest paths, cycle means, topologies.

The two graph computations at the heart of the paper's pipeline live here:

* :func:`~repro.graphs.karp.maximum_cycle_mean` -- the optimal precision
  ``A^max`` of SHIFTS step 1 (Karp 1978, cited in Section 4.4);
* :func:`~repro.graphs.shortest_paths.bellman_ford` and
  :func:`~repro.graphs.shortest_paths.floyd_warshall` -- the distance
  computations of SHIFTS step 2 and GLOBAL ESTIMATES.

These dict/digraph routines are the scalar reference oracle; the
production pipeline runs the matrix kernels of
:mod:`repro.engine.numpy_backend`.
"""

from repro.graphs.digraph import Node, WeightedDigraph
from repro.graphs.karp import (
    CycleMeanResult,
    cycle_mean,
    cycle_weight,
    enumerate_simple_cycle_means,
    maximum_cycle_mean,
    minimum_cycle_mean,
)
from repro.graphs.shortest_paths import (
    NegativeCycleError,
    bellman_ford,
    floyd_warshall,
)
from repro.graphs.topology import (
    Topology,
    binary_tree,
    complete,
    grid,
    hypercube,
    line,
    random_connected,
    ring,
    star,
)

__all__ = [
    "Node",
    "WeightedDigraph",
    "CycleMeanResult",
    "cycle_mean",
    "cycle_weight",
    "enumerate_simple_cycle_means",
    "maximum_cycle_mean",
    "minimum_cycle_mean",
    "NegativeCycleError",
    "bellman_ford",
    "floyd_warshall",
    "Topology",
    "binary_tree",
    "complete",
    "grid",
    "hypercube",
    "line",
    "random_connected",
    "ring",
    "star",
]
