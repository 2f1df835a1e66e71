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
* :mod:`~repro.engine.python_backend` -- the dict/digraph code as the
  reference oracle the numpy engine is tested against;
* :mod:`~repro.engine.registry` -- the two backends by name.

See DESIGN.md section "Engine layer" for the matrix layout and the
invariants the backends are tested against.
"""

from repro.engine.base import EngineShifts, SyncEngine
from repro.engine.index import PairView, ProcessorIndex
from repro.engine.numpy_backend import NumpyEngine
from repro.engine.python_backend import PythonEngine
from repro.engine.registry import (
    DEFAULT_BACKEND,
    available_backends,
    create_engine,
)
from repro.engine.stats import EngineStats

__all__ = [
    "EngineShifts",
    "SyncEngine",
    "PairView",
    "ProcessorIndex",
    "NumpyEngine",
    "PythonEngine",
    "DEFAULT_BACKEND",
    "available_backends",
    "create_engine",
    "EngineStats",
]
