"""Array-backed matrix engine for the GLOBAL ESTIMATES -> SHIFTS pipeline.

The pipeline of the paper is dense matrix algebra: GLOBAL ESTIMATES is a
min-plus closure, SHIFTS is a maximum cycle mean plus one single-source
shortest-path tree.  This package gives those stages a common matrix
substrate:

* :class:`~repro.engine.index.ProcessorIndex` -- stable id <-> row map;
* :class:`~repro.engine.base.SyncEngine` -- the stage interface, with
  per-stage timing/counter hooks in
  :class:`~repro.engine.stats.EngineStats`;
* :mod:`~repro.engine.numpy_backend` -- vectorized kernels plus the
  incremental single-edge closure update used by the online extension;
  the production path at every system size;
* :mod:`~repro.engine.python_backend` -- the scalar reference oracle
  (plain list-of-float loops) the numpy engine is tested against;
* :mod:`~repro.engine.registry` -- the two backends by name.

See DESIGN.md section "Engine layer" for the matrix layout and the
invariants the backends are tested against.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "EngineShifts": "repro.engine.base",
    "SyncEngine": "repro.engine.base",
    "PairView": "repro.engine.index",
    "ProcessorIndex": "repro.engine.index",
    "NumpyEngine": "repro.engine.numpy_backend",
    "PythonEngine": "repro.engine.python_backend",
    "DEFAULT_BACKEND": "repro.engine.registry",
    "available_backends": "repro.engine.registry",
    "create_engine": "repro.engine.registry",
    "EngineStats": "repro.engine.stats",
}

__all__ = [*_EXPORTS]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
