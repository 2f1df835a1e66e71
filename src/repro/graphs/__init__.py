"""Communication-graph topologies (:mod:`repro.graphs.topology`).

The graph computations of the pipeline -- GLOBAL ESTIMATES' closure,
Karp's maximum cycle mean and the SHIFTS distances -- run on dense
matrices in :mod:`repro.engine`: the numpy kernels in production, and
the scalar reference in :mod:`repro.engine.python_backend`.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "Topology": "repro.graphs.topology",
    "binary_tree": "repro.graphs.topology",
    "complete": "repro.graphs.topology",
    "grid": "repro.graphs.topology",
    "hypercube": "repro.graphs.topology",
    "line": "repro.graphs.topology",
    "random_connected": "repro.graphs.topology",
    "ring": "repro.graphs.topology",
    "star": "repro.graphs.topology",
}

__all__ = [*_EXPORTS]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
