"""The two engine backends, by name.

* ``"numpy"`` -- dense vectorized kernels, the production path at every
  system size (the default everywhere a backend can be named);
* ``"python"`` -- the scalar reference implementation, kept only
  as the semantics oracle the numpy engine is tested against.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.engine.base import SyncEngine
from repro.engine.numpy_backend import NumpyEngine
from repro.engine.python_backend import PythonEngine

#: The production backend.
DEFAULT_BACKEND = NumpyEngine.name

_FACTORIES: Dict[str, Callable[[], SyncEngine]] = {
    PythonEngine.name: PythonEngine,
    NumpyEngine.name: NumpyEngine,
}


def available_backends() -> List[str]:
    """Backend names, sorted."""
    return sorted(_FACTORIES)


def create_engine(backend: str = DEFAULT_BACKEND) -> SyncEngine:
    """Instantiate the named engine; unknown names raise ``ValueError``."""
    factory = _FACTORIES.get(backend)
    if factory is None:
        raise ValueError(
            f"unknown engine backend {backend!r}; "
            f"choose from {available_backends()}"
        )
    return factory()


__all__ = ["DEFAULT_BACKEND", "available_backends", "create_engine"]
