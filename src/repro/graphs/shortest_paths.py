"""Shortest paths under possibly-negative edge weights.

Both halves of the paper's pipeline are shortest-path computations:

* GLOBAL ESTIMATES (Theorem 5.5): ``ms~(p,q)`` is the distance from ``p``
  to ``q`` in ``G`` weighted by ``mls~``.  These weights can be negative
  (they are ``mls + S_p - S_q``), but Theorem 5.5 guarantees no negative
  cycles, so Bellman--Ford applies.
* SHIFTS step 2: corrections are distances under ``w(p,q) = A^max - ms~``,
  again negative-capable but provably free of negative cycles.

These scalar routines are the reference oracle: Bellman--Ford (single
source) and Floyd--Warshall (all pairs).  The production path runs the
same computations as matrix kernels in :mod:`repro.engine.numpy_backend`.
Both raise :class:`NegativeCycleError` when the precondition fails,
because in this code base a negative cycle always means a bug or an
inadmissible execution -- never a valid answer.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.graphs.digraph import Node, WeightedDigraph

INF = float("inf")


class NegativeCycleError(ValueError):
    """A negative-weight cycle was found where none is admissible.

    In the paper's setting this signals that the supplied local-shift
    estimates are inconsistent with *any* admissible execution (e.g. bounds
    that the observed delays violate).
    """

    def __init__(self, cycle: Optional[List[Node]] = None):
        self.cycle = cycle
        detail = f" through {cycle}" if cycle else ""
        super().__init__(f"negative-weight cycle{detail}")


def bellman_ford(
    graph: WeightedDigraph, source: Node
) -> Tuple[Dict[Node, float], Dict[Node, Node]]:
    """Single-source distances allowing negative weights.

    Returns ``(dist, parent)`` where unreachable nodes have distance
    ``inf`` and no parent entry.  Raises :class:`NegativeCycleError` if a
    negative cycle is reachable from ``source``.
    """
    if not graph.has_node(source):
        raise KeyError(f"source {source!r} not in graph")

    dist: Dict[Node, float] = {v: INF for v in graph.nodes}
    parent: Dict[Node, Node] = {}
    dist[source] = 0.0

    nodes = graph.nodes
    edges = list(graph.edges())
    for _ in range(len(nodes) - 1):
        changed = False
        for u, v, w in edges:
            du = dist[u]
            if du == INF:
                continue
            cand = du + w
            if cand < dist[v] - 1e-15:
                dist[v] = cand
                parent[v] = u
                changed = True
        if not changed:
            break
    # An edge still violated beyond tolerance after n-1 rounds means a
    # reachable negative cycle (and guards against float drift).
    for u, v, w in edges:
        if dist[u] != INF and dist[u] + w < dist[v] - 1e-9:
            raise NegativeCycleError(_trace_cycle(parent, v, len(nodes)))
    return dist, parent


def _trace_cycle(
    parent: Dict[Node, Node], start: Node, n: int
) -> Optional[List[Node]]:
    """Walk parent pointers ``n`` times to land inside the cycle, then loop."""
    v = start
    for _ in range(n):
        if v not in parent:
            return None
        v = parent[v]
    cycle = [v]
    u = parent.get(v)
    while u is not None and u != v:
        cycle.append(u)
        u = parent.get(u)
    if u is None:
        return None
    cycle.reverse()
    return cycle


def floyd_warshall(graph: WeightedDigraph) -> Dict[Node, Dict[Node, float]]:
    """All-pairs distances; raises on negative cycles.

    ``dist[u][u]`` is 0 (the empty path); a negative self-distance is the
    negative-cycle signal.
    """
    nodes = graph.nodes
    dist: Dict[Node, Dict[Node, float]] = {
        u: {v: (0.0 if u == v else INF) for v in nodes} for u in nodes
    }
    for u, v, w in graph.edges():
        if w < dist[u][v]:
            dist[u][v] = w
    # A self-loop of negative weight is itself a negative cycle; of
    # non-negative weight it can never improve any path, and the 0.0
    # initialisation of dist[u][u] would otherwise hide it.
    for k in nodes:
        dk = dist[k]
        for u in nodes:
            duk = dist[u][k]
            if duk == INF:
                continue
            du = dist[u]
            for v, dkv in dk.items():
                if dkv == INF:
                    continue
                cand = duk + dkv
                if cand < du[v]:
                    du[v] = cand
    for u in nodes:
        if dist[u][u] < -1e-9:
            raise NegativeCycleError()
    return dist


__all__ = [
    "NegativeCycleError",
    "bellman_ford",
    "floyd_warshall",
]
