"""Reference backend: the pipeline as plain scalar code.

This backend is the *semantics oracle* the numpy backend is
property-tested against (see ``tests/test_engine_parity.py``); no
production path selects it.  It shares no kernel with the numpy engine:
every matrix becomes a list of float rows, and each stage is the
textbook loop --

* GLOBAL ESTIMATES -- Floyd--Warshall (:func:`floyd_warshall`), a
  negative diagonal entry being the negative-cycle witness;
* components -- Tarjan's algorithm on the digraph of finite ``mls~``
  entries (:func:`strongly_connected_components`);
* SHIFTS step 1 -- Karp's recurrence on the complete ``ms~`` submatrix
  (:func:`karp_max_cycle_mean`);
* SHIFTS step 2 -- Bellman--Ford under ``w = A^max - ms~``
  (:func:`bellman_ford`) with the same epsilon-nudge retries as the
  numpy engine, and the critical cycle read off the edges the distances
  make tight (:func:`tight_cycle`).

In every function ``inf`` marks an absent edge.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.errors import InconsistentViewsError
from repro.engine.base import EngineShifts, SyncEngine

INF = float("inf")
_TOL = 1e-9

Matrix = Sequence[Sequence[float]]


def floyd_warshall(weights: Matrix) -> List[List[float]]:
    """All-pairs distances; ``dist[i][i]`` starts at ``min(0, w[i][i])``.

    Never raises: a negative diagonal entry of the result is the
    negative-cycle witness.
    """
    dist = [[float(w) for w in row] for row in weights]
    for i, row in enumerate(dist):
        row[i] = min(0.0, row[i])
    for k, row_k in enumerate(dist):
        for row in dist:
            d_ik = row[k]
            if d_ik == INF:
                continue
            for j, d_kj in enumerate(row_k):
                if d_ik + d_kj < row[j]:
                    row[j] = d_ik + d_kj
    return dist


def strongly_connected_components(weights: Matrix) -> List[List[int]]:
    """Tarjan's algorithm (iterative) on the finite off-diagonal entries
    (``inf`` and ``-inf`` are both absent edges).

    Each component is sorted, and components are ordered by first row.
    """
    n = len(weights)
    succ = [
        [j for j, w in enumerate(row) if j != i and abs(w) != INF]
        for i, row in enumerate(weights)
    ]
    index: List[Optional[int]] = [None] * n
    low = [0] * n
    on_stack = [False] * n
    stack: List[int] = []
    components: List[List[int]] = []
    counter = 0
    for root in range(n):
        if index[root] is not None:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            u, successors = work[-1]
            for v in successors:
                if index[v] is None:
                    index[v] = low[v] = counter
                    counter += 1
                    stack.append(v)
                    on_stack[v] = True
                    work.append((v, iter(succ[v])))
                    break
                if on_stack[v]:
                    low[u] = min(low[u], index[v])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[u])
                if low[u] == index[u]:
                    component = []
                    while not component or component[-1] != u:
                        v = stack.pop()
                        on_stack[v] = False
                        component.append(v)
                    components.append(sorted(component))
    return sorted(components)


def karp_max_cycle_mean(weights: Matrix) -> Optional[float]:
    """Maximum cycle mean by Karp's recurrence (diagonal ignored).

    Walks from row 0, so the off-diagonal part must be strongly
    connected -- as every all-finite ``ms~`` submatrix is.  The maximum
    is Karp's minimum on negated weights: with ``D[k][v]`` the least
    negated weight of a ``k``-edge walk from row 0 to ``v``,

        max mean = -min_v max_k (D[n][v] - D[k][v]) / (n - k).

    Returns ``None`` for fewer than two rows or no cycle.
    """
    n = len(weights)
    if n < 2:
        return None
    levels = [[0.0] + [INF] * (n - 1)]
    for _ in range(n):
        prev, cur = levels[-1], [INF] * n
        for u, d_u in enumerate(prev):
            if d_u == INF:
                continue
            for v, w in enumerate(weights[u]):
                if v != u and w != INF and d_u + -w < cur[v]:
                    cur[v] = d_u + -w
        levels.append(cur)
    best: Optional[float] = None
    for v in range(n):
        d_n = levels[n][v]
        if d_n == INF:
            continue
        worst = max(
            (d_n - levels[k][v]) / (n - k)
            for k in range(n)
            if levels[k][v] != INF
        )
        if best is None or worst < best:
            best = worst
    return None if best is None else -best


def bellman_ford(weights: Matrix, source: int) -> Optional[List[float]]:
    """Single-source distances; ``None`` when a negative cycle is reachable.

    Unreachable rows get ``inf``; a negative diagonal entry is a
    negative cycle, a non-negative one is inert.
    """
    n = len(weights)
    edges = [
        (u, v, w)
        for u, row in enumerate(weights)
        for v, w in enumerate(row)
        if w != INF
    ]
    dist = [INF] * n
    dist[source] = 0.0
    for _ in range(n - 1):
        changed = False
        for u, v, w in edges:
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                changed = True
        if not changed:
            break
    if any(dist[u] + w < dist[v] - _TOL for u, v, w in edges):
        return None
    return dist


def tight_cycle(
    weights: Matrix, a_max: float, dist: Sequence[float], nudges: int = 0
) -> Optional[List[int]]:
    """A critical cycle: a cycle of edges with zero slack under ``dist``.

    ``dist`` are feasible potentials for ``w = A^max - weights``, so a
    cycle of tight edges has mean ``A^max``.  Drop rows with no tight
    out-edge into the remaining rows until none is left to drop, then
    follow the first tight successor from the first remaining row until
    a row repeats.  ``nudges`` widens the tolerance as in the numpy
    engine.
    """
    n = len(weights)
    finite = [
        abs(w)
        for u, row in enumerate(weights)
        for v, w in enumerate(row)
        if u != v and w != INF
    ]
    tol = _TOL * max([1.0] + finite) * (1 + nudges * (n - 1))
    tight = [
        [
            v
            for v, w in enumerate(row)
            if v != u and w != INF and dist[u] + (a_max - w) - dist[v] <= tol
        ]
        for u, row in enumerate(weights)
    ]
    alive = set(range(n))
    while True:
        dropped = {u for u in alive if alive.isdisjoint(tight[u])}
        if not dropped:
            break
        alive -= dropped
    if not alive:
        return None
    path = [min(alive)]
    while True:
        u = next(v for v in tight[path[-1]] if v in alive)
        if u in path:
            return path[path.index(u):]
        path.append(u)


class PythonEngine(SyncEngine):
    """The scalar reference implementation."""

    name = "python"

    def _closure(self, mls_matrix: np.ndarray) -> np.ndarray:
        dist = floyd_warshall(mls_matrix.tolist())
        if any(dist[i][i] < -_TOL for i in range(len(dist))):
            raise InconsistentViewsError(
                "local shift estimates contain a negative cycle; the "
                "observed delays are inconsistent with the declared delay "
                "assumptions"
            )
        return np.array(dist, dtype=float).reshape(mls_matrix.shape)

    def _components(
        self, mls_matrix: np.ndarray, ms_matrix: np.ndarray
    ) -> List[List[int]]:
        return strongly_connected_components(mls_matrix.tolist())

    def _shifts(
        self,
        sub: np.ndarray,
        root_local: int,
        hint: Optional[List[int]] = None,
    ) -> EngineShifts:
        # The reference oracle always solves cold: ``hint`` is ignored.
        ms = sub.tolist()
        a_max = karp_max_cycle_mean(ms)
        assert a_max is not None  # complete graph with n >= 2 has cycles
        scale = max(1.0, abs(a_max))
        for nudges in range(4):
            w = [
                [
                    INF if u == v else (a_max - m) + nudges * 1e-9 * scale
                    for v, m in enumerate(row)
                ]
                for u, row in enumerate(ms)
            ]
            dist = bellman_ford(w, root_local)
            if dist is not None:
                break
        else:  # pragma: no cover - pathological floats only
            raise AssertionError(
                "negative cycle under w = A^max - ms~ persisted after "
                "nudging; this contradicts the maximum cycle mean"
            )
        cycle = tight_cycle(ms, a_max, dist, nudges)
        return EngineShifts(
            corrections=np.array(dist),
            a_max=a_max,
            cycle_rows=tuple(cycle) if cycle else None,
        )


__all__ = [
    "PythonEngine",
    "bellman_ford",
    "floyd_warshall",
    "karp_max_cycle_mean",
    "strongly_connected_components",
    "tight_cycle",
]
