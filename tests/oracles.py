"""Test oracles shared by the graph, engine and agreement tests.

* :func:`enumerate_simple_cycle_means` -- brute-force cycle enumeration,
  the exhaustive oracle for Karp on small graphs;
* :func:`min_cycle_mean` / :func:`max_cycle_mean` -- the reference
  module's kernels composed for an arbitrary digraph: Tarjan SCCs, Karp
  inside each one, and the witness read off the tight edges;
* :func:`run_shifts` / :func:`run_closure` -- SHIFTS and GLOBAL
  ESTIMATES on pair mappings through a :class:`~repro.engine.SyncEngine`,
  so semantics tests can run against both backends;
* :func:`reference_validate` -- the six history conditions checked as
  four separate passes, the reference for the one-pass
  :meth:`~repro.model.steps.History.validate`;
* :func:`reference_refresh` -- one online refresh the long way (every
  ``mls~`` term, whole-matrix compares, every copy-rule check in full),
  the reference for :class:`~repro.extensions.online.OnlineSynchronizer`.

Graphs are weight matrices: ``weights[u][v]`` is the edge ``u -> v`` and
``inf`` marks an absent edge.
"""

import dataclasses
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import InconsistentViewsError
from repro.engine import NumpyEngine, PairView, ProcessorIndex, PythonEngine
from repro.engine.python_backend import (
    bellman_ford,
    karp_max_cycle_mean,
    strongly_connected_components,
    tight_cycle,
)
from repro.model.events import StartEvent, TimerEvent
from repro.model.steps import ModelError

INF = float("inf")

#: One instance of each backend, for tests that run against both.
ENGINES = (NumpyEngine(), PythonEngine())


def matrix_from_edges(edges, n: Optional[int] = None) -> List[List[float]]:
    """Weight matrix of ``(u, v, w)`` triples over nodes ``0..n-1``."""
    edges = list(edges)
    if n is None:
        n = 1 + max((max(u, v) for u, v, _ in edges), default=-1)
    weights = [[INF] * n for _ in range(n)]
    for u, v, w in edges:
        weights[u][v] = w
    return weights


def cycle_weight(weights, cycle: Sequence[int]) -> float:
    """Total weight of ``cycle`` (closing edge implied)."""
    k = len(cycle)
    return sum(weights[cycle[i]][cycle[(i + 1) % k]] for i in range(k))


def cycle_mean(weights, cycle: Sequence[int]) -> float:
    """Mean weight of ``cycle`` (closing edge implied)."""
    return cycle_weight(weights, cycle) / len(cycle)


def enumerate_simple_cycle_means(
    weights, limit: int = 1_000_000
) -> List[Tuple[float, List[int]]]:
    """Mean weight of every simple cycle of length >= 2, by exhaustive DFS.

    Exponential -- a brute-force oracle for small graphs.  ``limit`` caps
    the number of cycles enumerated.
    """
    n = len(weights)
    cycles: List[Tuple[float, List[int]]] = []

    def dfs(start: int, current: int, path: List[int]) -> None:
        for nxt in range(n):
            if len(cycles) >= limit:
                return
            if nxt == current or weights[current][nxt] == INF:
                continue
            if nxt == start:
                cycles.append((cycle_mean(weights, path), list(path)))
            elif nxt > start and nxt not in path:
                path.append(nxt)
                dfs(start, nxt, path)
                path.pop()

    for start in range(n):
        dfs(start, start, [start])
    return cycles


def max_cycle_mean(weights) -> Optional[Tuple[float, List[int]]]:
    """``(mean, cycle)`` of a maximum-mean cycle, ``None`` if acyclic.

    Self-loops are ignored, as in the ``ms~`` digraph.
    """
    best = None
    for component in strongly_connected_components(weights):
        if len(component) < 2:
            continue
        sub = [[weights[u][v] for v in component] for u in component]
        mean = karp_max_cycle_mean(sub)
        if best is None or mean > best[0]:
            w = [
                [
                    INF if u == v or m == INF else mean - m
                    for v, m in enumerate(row)
                ]
                for u, row in enumerate(sub)
            ]
            cycle = tight_cycle(sub, mean, bellman_ford(w, 0))
            best = (mean, [component[i] for i in cycle])
    return best


def min_cycle_mean(weights) -> Optional[Tuple[float, List[int]]]:
    """``(mean, cycle)`` of a minimum-mean cycle, ``None`` if acyclic."""
    negated = [[-w if w != INF else INF for w in row] for row in weights]
    best = max_cycle_mean(negated)
    return None if best is None else (-best[0], best[1])


def run_shifts(engine, processors, ms, root=None) -> SimpleNamespace:
    """SHIFTS over ``processors`` of the pair mapping ``ms``.

    Returns ``corrections`` (a dict), ``precision``, ``critical_cycle``
    (processor ids) and ``root``, like one synchronization component.
    """
    index = ProcessorIndex(processors)
    root_row = None if root is None else index.row(root)
    outcome = engine.shifts(index.matrix(ms), root_row=root_row)
    cycle = outcome.cycle_rows
    return SimpleNamespace(
        corrections={
            p: float(x) for p, x in zip(index, outcome.corrections)
        },
        precision=outcome.a_max,
        critical_cycle=(
            None if cycle is None else tuple(index.processor(r) for r in cycle)
        ),
        root=processors[0] if root is None else root,
    )


def run_closure(engine, processors, mls) -> Dict[Tuple, float]:
    """GLOBAL ESTIMATES: ``ms~`` for every ordered pair of ``processors``."""
    index = ProcessorIndex(processors)
    return dict(PairView(engine.global_estimates(index.matrix(mls)), index))


def reference_validate(history) -> None:
    """The six history conditions, one pass per condition (3, 4, 5, 6).

    Raises the :class:`~repro.model.steps.ModelError` of the first
    condition violated, in condition order; ``History.validate`` must
    raise the same message on every history.
    """
    if not history.steps:
        raise ModelError(f"history of {history.processor!r} is empty")

    # Condition 2: first step is a start event from the initial state.
    first = history.steps[0].step
    if not isinstance(first.interrupt, StartEvent):
        raise ModelError("first step must be a start event")
    start = history.steps[0].real_time

    # Condition 3: no other start events, states chain correctly.
    prev_state = first.new_state
    for ts in history.steps[1:]:
        if isinstance(ts.step.interrupt, StartEvent):
            raise ModelError("multiple start events in one history")
        if ts.step.old_state != prev_state:
            raise ModelError(
                f"state mismatch at real time {ts.real_time}: "
                f"{ts.step.old_state!r} != {prev_state!r}"
            )
        prev_state = ts.step.new_state

    # Condition 4: clock time of every step equals real time minus S.
    for ts in history.steps:
        expected = ts.real_time - start
        if abs(ts.step.clock_time - expected) > 1e-9:
            raise ModelError(
                f"clock time {ts.step.clock_time} != real {ts.real_time} - "
                f"start {start}"
            )

    # Condition 5: at most one timer event per real time, ordered last.
    by_time: dict = {}
    for ts in history.steps:
        by_time.setdefault(ts.real_time, []).append(ts.step)
    for real_time, seq in by_time.items():
        timer_positions = [
            i for i, st in enumerate(seq) if isinstance(st.interrupt, TimerEvent)
        ]
        if len(timer_positions) > 1:
            raise ModelError(f"two timer events at real time {real_time}")
        if timer_positions and timer_positions[0] != len(seq) - 1:
            raise ModelError(
                f"timer event not last among steps at real time {real_time}"
            )

    # Condition 6: a timer fires at clock T iff a timer was set for T.
    set_times = set()
    for ts in history.steps:
        for ev in ts.step.timer_sets:
            set_times.add(round(ev.clock_time, 9))
    for ts in history.steps:
        iv = ts.step.interrupt
        if isinstance(iv, TimerEvent):
            if round(iv.clock_time, 9) not in set_times:
                raise ModelError(
                    f"timer for clock time {iv.clock_time} fired but was never set"
                )


def reference_refresh(sync, dmin, dmax, last=None):
    """What an online refresh serves for the per-edge extremes ``dmin``,
    ``dmax`` (``LinkTerms`` edge order, silent: ``+inf``/``-inf``) after
    the refresh that served ``last`` (``None``: the first, or the first
    after a reset).

    Every edge's ``mls~`` is evaluated (``LinkTerms.mls``) and the matrix
    rebuilt (``LinkTerms.matrix_of``).  ``last``'s closure is repaired
    through the cells that tightened, in row-major order, and recomputed
    when one loosened, the repair failed or there is no ``last``.
    ``from_matrices`` then gets ``last`` as ``previous`` without what
    its copy-rule checks proved, so it compares whole matrices and runs
    every check in full.  Raises what the refresh raises.
    """
    terms = sync.system.link_terms
    mls_matrix = terms.matrix_of(terms.mls(dmin, dmax))
    ms_matrix = previous = None
    if last is not None:
        earlier = last.mls_tilde.matrix
        cells = np.flatnonzero(
            mls_matrix.view(np.int64) != earlier.view(np.int64)
        )
        new, was = mls_matrix.ravel()[cells], earlier.ravel()[cells]
        if not (new > was).any():
            n = len(mls_matrix)
            changes = [
                (int(cell) // n, int(cell) % n, float(value))
                for cell, value in zip(cells[new < was], new[new < was])
            ]
            ms_matrix = last.ms_tilde.matrix
            if changes:
                try:
                    repair = sync.engine.incremental_update(ms_matrix, changes)
                except InconsistentViewsError:
                    repair = None
                ms_matrix = None if repair is None else repair[0]
        previous = dataclasses.replace(last)
        object.__setattr__(previous, "_solved", tuple(
            record._replace(proof=None) for record in last._solved
        ))
    if ms_matrix is None:
        ms_matrix = sync.engine.global_estimates(mls_matrix)
    return sync.from_matrices(
        mls_matrix=mls_matrix, ms_matrix=ms_matrix, previous=previous
    )
