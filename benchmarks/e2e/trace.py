"""Per-layer tracing from outside the program.

The traced run replaces layer entry points of ``repro`` -- module
functions and class methods, never instances (``System`` is frozen and
``ProcessorIndex`` is slotted) -- with wrappers that record one span
``(name, start, end, parent)`` per call in memory.  :func:`traced`
installs the wrappers and restores the originals on exit, so the
program itself carries no benchmark code.  A layer's *self time* is its
span's duration minus the part of that interval its child spans cover
(:func:`self_times`).

Wrappers are synchronous: only plain functions are wrapped, so a span
never straddles an ``await`` and the span stack stays a stack even
inside an asyncio server.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Layer name -> (module, attribute).  ``Class.method`` attributes are
#: patched on the class; module functions are patched in every loaded
#: ``repro`` module that bound them with ``from ... import``.
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("core.pipeline", "repro.core.synchronizer", "ClockSynchronizer.from_views"),
    ("core.estimates", "repro.core.estimates", "local_shift_estimates"),
    ("engine.closure", "repro.engine.base", "SyncEngine.global_estimates"),
    ("engine.components", "repro.engine.base", "SyncEngine.components"),
    ("engine.shifts", "repro.engine.base", "SyncEngine.shifts"),
    ("engine.incremental", "repro.engine.base", "SyncEngine.incremental_update"),
    ("engine.index.matrix", "repro.engine.index", "ProcessorIndex.matrix"),
    ("engine.index.pairs", "repro.engine.index", "ProcessorIndex.pairs"),
    ("delays.mls_from_stats", "repro.delays.system", "System.mls_from_stats"),
    ("extensions.online.observe", "repro.extensions.online",
     "OnlineSynchronizer.observe"),
    ("core.synchronizer.assemble", "repro.core.synchronizer",
     "ClockSynchronizer.from_matrices"),
    ("core.optimality.certificate", "repro.core.optimality",
     "verify_certificate"),
    ("live.wire.decode", "repro.live.wire", "decode"),
    ("live.wire.encode", "repro.live.wire", "encode"),
    ("live.server.datagram", "repro.live.server",
     "CorrectionServer.datagram_received"),
    ("transport.on_datagram", "repro.live.transport",
     "SegmentChannel.on_datagram"),
    ("live.peer.datagram", "repro.live.peer", "ProbePeer.datagram_received"),
    ("live.trace.append", "repro.live.trace", "ProbeLog.append"),
    ("live.refresh", "repro.live.server", "CorrectionServer._compute"),
    ("sim.run", "repro.sim.network", "NetworkSimulator.run"),
    ("runner.execute_cell", "repro.runner.cells", "execute_cell"),
)

#: Name of the span the benchmark opens around each op; its self time is
#: the part of the op no layer claims.
OP = "op"

Span = Tuple[str, float, float, int]


class Tracer:
    """In-memory span recorder: ``spans[i] = (name, start, end, parent)``.

    ``parent`` is the index of the enclosing span, ``-1`` for a root.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.spans: List[Optional[Span]] = []
        self._stack: List[int] = []
        self._clock = clock

    def wrap(self, name: str, function: Callable) -> Callable:
        """``function`` with one span recorded around every call."""
        spans, stack, clock = self.spans, self._stack, self._clock

        @functools.wraps(function)
        def traced_call(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced_call


def _bindings(member: str, value: object) -> List[object]:
    """Every loaded ``repro`` module whose ``member`` is ``value``."""
    return [
        module
        for name, module in list(sys.modules.items())
        if (name == "repro" or name.startswith("repro."))
        and module is not None
        and getattr(module, member, None) is value
    ]


@contextmanager
def traced(
    tracer: Tracer, layers: Sequence[Tuple[str, str, str]] = LAYERS
) -> Iterator[Tracer]:
    """Install a span wrapper on every layer; restore them all on exit."""
    patched: List[Tuple[List[object], str, object, object]] = []
    try:
        for name, module_name, attribute in layers:
            module = importlib.import_module(module_name)
            owner_name, _, member = attribute.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[member]
                owners = [owner]
            else:
                original = getattr(module, member)
                owners = _bindings(member, original)
            wrapper = tracer.wrap(name, original)
            for owner in owners:
                setattr(owner, member, wrapper)
            patched.append((owners, member, original, wrapper))
        yield tracer
    finally:
        for owners, member, original, wrapper in reversed(patched):
            # A module imported while tracing may have bound the wrapper.
            for owner in set(owners) | set(_bindings(member, wrapper)):
                setattr(owner, member, original)


def self_times(
    spans: Sequence[Optional[Span]],
) -> Dict[str, Tuple[int, float]]:
    """``name -> (calls, total self seconds)`` over a list of spans.

    A span's self time is its duration minus the union of its children's
    intervals clipped to its own, so overlapping children (concurrent
    work under one parent) are not subtracted twice.  Spans still open
    (``None`` slots) are skipped.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span is not None and span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out: Dict[str, Tuple[int, float]] = {}
    for index, span in enumerate(spans):
        if span is None:
            continue
        name, start, end, _ = span
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, reach)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + (end - start) - covered)
    return out


__all__ = ["LAYERS", "OP", "Tracer", "self_times", "traced"]
