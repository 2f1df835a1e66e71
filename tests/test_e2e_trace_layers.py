"""The end-to-end benchmark's layer table still names real code.

``benchmarks/e2e/trace.py`` wraps each entry of ``LAYERS`` for the
traced run.  A rename or deletion in ``repro`` would make ``traced()``
raise, and the benchmark's traced run would fail; this guard fails
first.  The module is loaded from its file and never modified.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

TRACE_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "trace.py"


@pytest.fixture(scope="module")
def trace():
    spec = importlib.util.spec_from_file_location("e2e_trace_guard", TRACE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(module_name, attribute):
    """``(owner, member, original)``: the module or class a layer patches,
    the patched name, and the function it holds."""
    module = importlib.import_module(module_name)
    owner_name, _, member = attribute.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    return owner, member, owner.__dict__[member]


def modules_binding(member, value):
    """Names of the loaded ``repro`` modules whose ``member`` is ``value``."""
    return sorted(
        name
        for name, module in list(sys.modules.items())
        if (name == "repro" or name.startswith("repro."))
        and module is not None
        and getattr(module, member, None) is value
    )


def test_every_layer_names_a_function(trace):
    assert trace.LAYERS
    for name, module_name, attribute in trace.LAYERS:
        owner, _, original = resolve(module_name, attribute)
        # The tracer wraps plain functions only (never a classmethod,
        # property or coroutine function), on a module or a class.
        assert inspect.ismodule(owner) or inspect.isclass(owner), name
        assert inspect.isfunction(original), name
        assert not inspect.iscoroutinefunction(original), name


def test_traced_installs_and_restores_every_original(trace):
    entries = [
        (name, *resolve(module_name, attribute))
        for name, module_name, attribute in trace.LAYERS
    ]
    bound = {
        name: modules_binding(member, original)
        for name, owner, member, original in entries
        if inspect.ismodule(owner)
    }
    wrappers = {}
    with trace.traced(trace.Tracer()):
        for name, owner, member, original in entries:
            installed = wrappers[name] = owner.__dict__[member]
            assert installed is not original, name
            assert installed.__wrapped__ is original, name
            if name in bound:
                assert modules_binding(member, original) == [], name
    for name, owner, member, original in entries:
        assert owner.__dict__[member] is original, name
        if name in bound:
            # A module first imported while tracing bound the wrapper;
            # the exit restores it too.
            assert modules_binding(member, wrappers[name]) == [], name
            assert set(bound[name]) <= set(modules_binding(member, original))
