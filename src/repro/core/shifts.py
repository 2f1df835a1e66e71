"""The SHIFTS function (paper, Section 4.4).

Given estimated maximal global shifts ``ms~(p, q)`` for every ordered pair
of processors, SHIFTS computes:

1. the optimal achievable precision

       A^max = max over cyclic sequences theta of ms~(theta) / |theta|

   -- the maximum cycle mean of the complete digraph weighted by ``ms~``
   (identical under ``ms`` and ``ms~`` by Lemma 4.5, because the start-time
   translations cancel around a cycle); computed with Karp's algorithm;

2. corrections ``f(p) = dist_w(r, p)`` from an arbitrary root ``r`` under
   the weights ``w(p, q) = A^max - ms~(p, q)``.  The choice of ``A^max``
   makes every cycle non-negative, so the distances exist; the triangle
   inequality of those distances is precisely the inequality chain in the
   proof of Theorem 4.6 that pins ``rho_bar`` at ``A^max``.

Theorem 4.4 (lower bound) plus Theorem 4.6 (upper bound): no correction
function does better on *any* execution -- per-instance optimality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro._types import INF, ProcessorId, Time
from repro.graphs.digraph import WeightedDigraph
from repro.graphs.karp import maximum_cycle_mean
from repro.graphs.shortest_paths import NegativeCycleError, bellman_ford


class UnboundedPrecisionError(ValueError):
    """Some ordered pair has ``ms~ = inf``: no finite precision exists.

    Happens when the finite-estimate graph is not strongly connected --
    e.g. a link with no traffic and no upper bound in one direction.  The
    system can still be synchronized per *synchronization component*; see
    :mod:`repro.core.synchronizer`.
    """

    def __init__(self, pairs: Sequence[Tuple[ProcessorId, ProcessorId]]):
        self.pairs = list(pairs)
        preview = ", ".join(f"({p!r},{q!r})" for p, q in self.pairs[:5])
        more = "..." if len(self.pairs) > 5 else ""
        super().__init__(
            f"maximal shift estimates are infinite for pairs: {preview}{more}"
        )


@dataclass(frozen=True)
class ShiftsOutcome:
    """Result of the SHIFTS computation.

    ``precision`` is ``A^max`` -- both the guaranteed worst case over all
    executions equivalent to the observed one *and* a lower bound no other
    correction function can beat.  ``critical_cycle`` is the cyclic
    sequence of processors witnessing the lower bound.
    """

    corrections: Dict[ProcessorId, Time]
    precision: Time
    critical_cycle: Optional[Tuple[ProcessorId, ...]]
    root: ProcessorId


def shifts(
    processors: Sequence[ProcessorId],
    ms_tilde: Mapping[Tuple[ProcessorId, ProcessorId], Time],
    root: Optional[ProcessorId] = None,
) -> ShiftsOutcome:
    """Run SHIFTS over all processors; see module docstring.

    This dict/digraph version is the scalar reference that the matrix
    engine (:mod:`repro.engine.numpy_backend`) is tested against.

    Raises :class:`UnboundedPrecisionError` when any ordered pair's
    estimate is infinite (use the synchronizer facade for per-component
    treatment).
    """
    processors = list(processors)
    if not processors:
        raise ValueError("no processors")
    if root is None:
        root = processors[0]
    elif root not in processors:
        raise ValueError(f"root {root!r} is not a processor")

    if len(processors) == 1:
        return ShiftsOutcome(
            corrections={processors[0]: 0.0},
            precision=0.0,
            critical_cycle=None,
            root=root,
        )

    infinite = [
        (p, q)
        for p in processors
        for q in processors
        if p != q and ms_tilde.get((p, q), INF) == INF
    ]
    if infinite:
        raise UnboundedPrecisionError(infinite)

    # Step 1: A^max by Karp's algorithm on the complete ms~ digraph.
    ms_graph = WeightedDigraph()
    for p in processors:
        ms_graph.add_node(p)
    for p in processors:
        for q in processors:
            if p != q:
                ms_graph.add_edge(p, q, ms_tilde[(p, q)])
    cycle_result = maximum_cycle_mean(ms_graph)
    assert cycle_result.mean is not None  # complete graph with n >= 2 has cycles
    a_max = cycle_result.mean

    # Step 2: corrections are distances under w = A^max - ms~.  Float
    # rounding can leave a cycle epsilon-negative; retry with a nudged
    # A^max rather than fail (the nudge is far below any meaningful
    # precision scale).  The complete edge list is built once; a nudge
    # attempt only rewrites the stored weights.
    scale = max(1.0, abs(a_max))
    base_edges = [
        (p, q, a_max - ms_tilde[(p, q)])
        for p in processors
        for q in processors
        if p != q
    ]
    w_graph = WeightedDigraph()
    for p in processors:
        w_graph.add_node(p)
    for attempt in range(4):
        nudge = attempt * 1e-9 * scale
        for p, q, base in base_edges:
            w_graph.add_edge(p, q, base + nudge, keep="last")
        try:
            dist, _ = bellman_ford(w_graph, root)
            break
        except NegativeCycleError:
            continue
    else:  # pragma: no cover - would need pathological float behaviour
        raise AssertionError(
            "negative cycle under w = A^max - ms~ persisted after nudging; "
            "this contradicts the definition of the maximum cycle mean"
        )

    corrections = {p: dist[p] for p in processors}
    cycle = tuple(cycle_result.cycle) if cycle_result.cycle else None
    return ShiftsOutcome(
        corrections=corrections,
        precision=a_max,
        critical_cycle=cycle,
        root=root,
    )


__all__ = ["UnboundedPrecisionError", "ShiftsOutcome", "shifts"]
