"""Communication-graph topologies (:mod:`repro.graphs.topology`).

The graph computations of the pipeline -- GLOBAL ESTIMATES' closure,
Karp's maximum cycle mean and the SHIFTS distances -- run on dense
matrices in :mod:`repro.engine`: the numpy kernels in production, and
the scalar reference in :mod:`repro.engine.python_backend`.
"""

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
