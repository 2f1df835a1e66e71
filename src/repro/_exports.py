"""The one export rule: a package names each public symbol in a lazy table.

Every ``repro`` package ``__init__`` holds ``_EXPORTS = {name: module}``
and ends with::

    __all__ = [*_EXPORTS]
    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

A name is imported from its defining module on first access (PEP 562)
and then cached in the package namespace, so ``import repro`` loads only
the package shells and a caller pays for the layers it uses.  A
submodule resolves as an attribute even before anything imported it
(``repro.core`` after a bare ``import repro``).  An unknown name raises
``AttributeError``, never ``ImportError``, so ``getattr(package, name,
None)`` is a safe probe.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, List, Mapping, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` pair for ``package``'s ``exports``."""
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        module = exports.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module), name)
        else:
            submodule = f"{package}.{name}"
            try:
                value = importlib.import_module(submodule)
            except ModuleNotFoundError as exc:
                if exc.name != submodule:
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
