"""The import rule: every package exports from one lazy name table.

Each check runs in a fresh interpreter, because the test process itself
has long since imported most of the package:

* every module under ``src/repro`` imports as the first import (no
  import cycle hides behind an eager package ``__init__``), and its
  top-level imports reach only its own layer or lower ones, with no
  cycle (read from the source, DESIGN.md section 5);
* ``import repro`` and ``import repro.<pkg>`` load only package shells
  and the shared export helper;
* the paper's pipeline (``repro.run`` with certification) loads none of
  the runtime layers above it, nor asyncio, ssl, hashlib, sockets or
  process pools;
* the live wire codec loads no event loop, and the CLI loads no
  experiment until one runs.

The public surface is unchanged: every name in every package's
``__all__`` resolves, lists in ``dir()`` and binds under ``import *``.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: The packages whose ``__init__`` is an export table.
EXPORT_PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.baselines",
    "repro.bench",
    "repro.core",
    "repro.delays",
    "repro.engine",
    "repro.extensions",
    "repro.faults",
    "repro.graphs",
    "repro.live",
    "repro.model",
    "repro.obs",
    "repro.runner",
    "repro.sim",
    "repro.workloads",
)

#: Every package with an ``__all__``; ``transport`` and ``cli`` also
#: hold code of their own, and ``experiments`` holds the registry.
PUBLIC_PACKAGES = (
    *EXPORT_PACKAGES, "repro.cli", "repro.experiments", "repro.transport",
)

#: Bottom to top, as DESIGN.md section 5 lists them; a module sits in
#: the layer of its longest listed prefix.
LAYERS = (
    # stdlib-only modules every layer may use
    ("repro", "repro._types", "repro._exports", "repro.records",
     "repro.model", "repro.graphs", "repro.obs", "repro.core.errors",
     "repro.analysis.reporting"),
    ("repro.delays",),
    ("repro.engine",),
    ("repro.core", "repro.api", "repro.session"),
    ("repro.sim", "repro.transport", "repro.faults", "repro.live.wire",
     "repro.live.trace"),
    ("repro.extensions",),
    ("repro.analysis", "repro.baselines"),
    ("repro.runner", "repro.workloads", "repro.faults.chaos"),
    ("repro.live",),
    ("repro.obs.timeline", "repro.obs.monitor", "repro.bench", "repro.cli",
     "repro.experiments"),
)

#: Layers the synchronization pipeline never runs.
ABOVE_PIPELINE = (
    "runner", "live", "transport", "sim", "faults", "workloads",
    "baselines", "bench", "cli", "experiments",
)
HEAVY_STDLIB = (
    "asyncio", "ssl", "hashlib", "multiprocessing", "socket",
    "concurrent.futures", "http.server",
)


def all_modules():
    return sorted(
        ".".join(path.with_suffix("").relative_to(SRC).parts).removesuffix(
            ".__init__"
        )
        for path in (SRC / "repro").rglob("*.py")
    )


def layer(module: str) -> int:
    prefixes = [
        (len(prefix), rank)
        for rank, group in enumerate(LAYERS)
        for prefix in group
        if module == prefix or module.startswith(prefix + ".")
    ]
    return max(prefixes)[1]


def top_level_imports(module: str, modules):
    """The ``repro`` modules ``module`` imports outside any function
    and outside ``if TYPE_CHECKING:``."""
    parts = module.split(".")
    path = SRC.joinpath(*parts).with_suffix(".py")
    if not path.exists():
        path = SRC.joinpath(*parts, "__init__.py")
    found = set()

    def visit(body):
        for node in body:
            if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(
                node.test
            ):
                continue
            if isinstance(node, (ast.If, ast.Try)):
                visit(node.body)
            elif isinstance(node, ast.Import):
                found.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    name = f"{node.module}.{alias.name}"
                    found.add(name if name in modules else node.module)

    visit(ast.parse(path.read_text()).body)
    return {m for m in found if m in modules and m != module}


def fresh(code: str):
    """Run ``code`` in a new interpreter; return the JSON it prints last."""
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


LOADED = """
import json, sys
before = set(sys.modules)
{statement}
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def loaded_by(statement: str):
    return fresh(LOADED.format(statement=textwrap.dedent(statement)))


def test_every_module_imports_first():
    # One child per module, forked from a parent holding only the
    # stdlib; two run at a time.
    failures = fresh(
        """
        import json, os, sys, traceback
        modules = %r
        failures = {}
        running = {}

        def reap():
            pid, status = os.wait()
            name, read_end = running.pop(pid)
            with os.fdopen(read_end) as pipe:
                message = pipe.read()
            if status:
                failures[name] = message

        for name in modules:
            if len(running) == 2:
                reap()
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_end)
                try:
                    __import__(name)
                    code = 0
                except BaseException:
                    os.write(write_end, traceback.format_exc().encode())
                    code = 1
                os._exit(code)
            os.close(write_end)
            running[pid] = (name, read_end)
        while running:
            reap()
        print(json.dumps(failures))
        """
        % (all_modules(),)
    )
    assert failures == {}


def test_top_level_imports_respect_layers():
    modules = set(all_modules())
    graph = {m: top_level_imports(m, modules) for m in modules}
    upward = sorted(
        (m, target) for m, targets in graph.items() for target in targets
        if layer(target) > layer(m)
    )
    assert upward == []
    # Kahn's algorithm: every module leaves once its imports have.
    pending = {m: set(targets) for m, targets in graph.items()}
    while True:
        ready = [m for m, targets in pending.items() if not targets]
        if not ready:
            break
        for m in ready:
            del pending[m]
        for targets in pending.values():
            targets.difference_update(ready)
    assert pending == {}


@pytest.mark.parametrize("package", EXPORT_PACKAGES)
def test_package_import_loads_only_shells(package):
    shells = {"repro._exports", *EXPORT_PACKAGES}
    loaded = loaded_by(f"import {package}")
    assert [m for m in loaded if m.startswith("repro")
            and m not in shells] == []


def test_pipeline_loads_no_runtime_layer():
    loaded = loaded_by(
        """
        import repro
        from repro.model import ExecutionBuilder

        builder = ExecutionBuilder()
        for p, start in enumerate((0.0, 3.0, 1.5, 7.0)):
            builder.processor(p, start=start)
        for p in range(4):
            q = (p + 1) % 4
            builder.message(p, q, send_clock=10.0, delay=2.0)
            builder.message(q, p, send_clock=12.0, delay=1.5)
        system = repro.System.uniform(
            repro.ring(4), repro.BoundedDelay.symmetric(1.0, 3.0)
        )
        repro.run(system, builder.build().views(), certify=True)
        """
    )
    above = [
        m for m in loaded
        if m.startswith("repro.") and m.split(".")[1] in ABOVE_PIPELINE
    ]
    assert above == []
    assert [m for m in HEAVY_STDLIB if m in loaded] == []


def test_wire_codec_loads_no_event_loop():
    loaded = loaded_by("import repro.live.wire")
    assert "asyncio" not in loaded and "ssl" not in loaded


def test_cli_loads_no_experiment():
    loaded = loaded_by("import repro.cli")
    assert [m for m in loaded if m.startswith("repro.experiments.e")] == []
    assert "scipy" not in loaded


@pytest.mark.parametrize("package", PUBLIC_PACKAGES)
def test_every_public_name_resolves(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        getattr(module, name)
    assert set(module.__all__) <= set(dir(module))
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_unknown_name_is_attribute_error():
    import repro

    with pytest.raises(AttributeError):
        repro.no_such_name
    assert getattr(repro.live, "no_such_name", None) is None


def test_subpackages_resolve_after_bare_import():
    resolved = fresh(
        """
        import json
        import repro
        print(json.dumps([repro.core.__name__, repro.live.__name__]))
        """
    )
    assert resolved == ["repro.core", "repro.live"]
