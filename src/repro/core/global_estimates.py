"""GLOBAL ESTIMATES (paper, Section 5.3).

In a local system the maximal *global* shift of ``q`` w.r.t. ``p`` is the
shortest-path distance from ``p`` to ``q`` under the per-link maximal
*local* shifts (Lemma 5.3): a global shift must respect every link on
every path, and conversely any per-link-feasible potential assignment can
be realised (the paper's ``gamma``-scaling argument).  Theorem 5.5 shows
the same computation on *estimated* local shifts yields the estimated
global shifts ``ms~`` because the ``S_p - S_q`` translations telescope
along paths and cancel around cycles.

The weights ``mls~`` may be negative; Theorem 5.5 also guarantees no
negative cycles for views that come from an actually admissible execution.
A negative cycle therefore means the views are inconsistent with the
claimed delay assumptions, which we surface as
:class:`InconsistentViewsError`.
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

from repro._types import Edge, INF, ProcessorId, Time
from repro.graphs.digraph import WeightedDigraph
from repro.graphs.shortest_paths import NegativeCycleError, floyd_warshall


class InconsistentViewsError(ValueError):
    """The local-shift estimates admit a negative cycle.

    No admissible execution can produce such estimates (the cycle weight
    under ``mls~`` equals the cycle weight under ``mls >= 0``); the usual
    cause is a delay assumption the observed delays actually violate.
    """


def shift_graph(
    processors, mls_tilde: Mapping[Edge, Time]
) -> WeightedDigraph:
    """The communication graph weighted by (finite) local-shift estimates.

    Infinite estimates are dropped: they impose no constraint and must not
    participate in shortest paths (``inf`` would poison path sums).
    """
    graph = WeightedDigraph()
    for p in processors:
        graph.add_node(p)
    for (p, q), weight in mls_tilde.items():
        if weight != INF:
            graph.add_edge(p, q, weight)
    return graph


def global_shift_estimates(
    processors, mls_tilde: Mapping[Edge, Time]
) -> Dict[Tuple[ProcessorId, ProcessorId], Time]:
    """``ms~(p, q)`` for every ordered pair of processors.

    Pairs with no directed path of finite local estimates get ``inf``:
    ``q`` can be shifted arbitrarily far from ``p`` and the system cannot
    bound their mutual precision on this execution.

    This dict/digraph version is the scalar reference (the ``"python"``
    engine); the production path is the numpy engine's min-plus closure.
    """
    graph = shift_graph(processors, mls_tilde)
    try:
        dist = floyd_warshall(graph)
    except NegativeCycleError as exc:
        raise InconsistentViewsError(
            "local shift estimates contain a negative cycle; the observed "
            "delays are inconsistent with the declared delay assumptions"
        ) from exc
    out: Dict[Tuple[ProcessorId, ProcessorId], Time] = {}
    for p in processors:
        row = dist[p]
        for q in processors:
            out[(p, q)] = row[q]
    return out


__all__ = ["InconsistentViewsError", "shift_graph", "global_shift_estimates"]
