"""Detecting and localizing delay-assumption violations.

The paper's final open problem asks for fault tolerance.  A first,
practically important step is *detection*: the pipeline itself provides a
sound violation detector for free.  For views produced by any admissible
execution, every cycle has non-negative ``mls~`` weight (the translations
cancel and true local shifts are non-negative -- the argument inside
Theorem 5.5).  A negative cycle therefore *proves* that some link's
observed delays violate its declared assumption: a misdeclared bound, a
broken NIC timestamp, or an asymmetric route sold as symmetric.

This module turns that soundness fact into a diagnosis tool:

* :func:`diagnose` -- screen every link's own two-cycle
  (``mls~(p,q) + mls~(q,p) < 0`` convicts the link in isolation), then
  hunt multi-link negative cycles and greedily remove the most suspicious
  edge until consistency is restored;
* :func:`synchronize_excluding` -- resynchronize with the suspect links'
  information discarded, yielding honest (possibly per-component)
  precision for the healthy part of the system.

Detection is *sound* (a convicted two-cycle link truly violated its
assumption) but not complete: a violation that stays inside the link's
feasible envelope is information-theoretically invisible.  Multi-link
cycles identify a set containing a culprit; the greedy choice of which
edge to drop is a heuristic and is labelled as such in the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro._types import Edge, INF, ProcessorId, Time
from repro.core.estimates import local_shift_estimates
from repro.core.synchronizer import ClockSynchronizer, SyncResult
from repro.delays.system import System
from repro.engine.index import ProcessorIndex
from repro.engine.numpy_backend import cycle_mean, howard_cycle
from repro.engine.numpy_backend import min_plus_closure
from repro.model.views import View


@dataclass(frozen=True)
class Diagnosis:
    """Outcome of a consistency screen.

    ``convicted`` links are *provably* in violation (their own two-cycle
    is negative); ``suspects`` were removed heuristically to break
    multi-link negative cycles (at least one of each removed cycle's
    links is faulty, but which one is not identifiable from views).
    """

    consistent: bool
    convicted: Tuple[Tuple[ProcessorId, ProcessorId], ...]
    suspects: Tuple[Tuple[ProcessorId, ProcessorId], ...]
    negative_cycles: Tuple[Tuple[ProcessorId, ...], ...]

    @property
    def excluded_links(self) -> Tuple[Tuple[ProcessorId, ProcessorId], ...]:
        """All links to drop before resynchronizing (convicted + suspects)."""
        return self.convicted + self.suspects


def diagnose(
    system: System, views: Mapping[ProcessorId, View]
) -> Diagnosis:
    """Screen one execution's views against the system's assumptions."""
    mls_tilde = local_shift_estimates(system, views)
    return diagnose_local_estimates(system, mls_tilde)


def diagnose_local_estimates(
    system: System, mls_tilde: Mapping[Edge, Time]
) -> Diagnosis:
    """Diagnosis from precomputed local-shift estimates."""
    working: Dict[Edge, Time] = dict(mls_tilde)
    convicted: List[Tuple[ProcessorId, ProcessorId]] = []
    suspects: List[Tuple[ProcessorId, ProcessorId]] = []
    cycles: List[Tuple[ProcessorId, ...]] = []

    # Phase 1: per-link two-cycles.  mls(p,q) + mls(q,p) >= 0 holds for
    # every admissible execution; a negative sum convicts the link alone.
    for link in system.topology.links:
        p, q = link
        forward = working.get((p, q), INF)
        backward = working.get((q, p), INF)
        if forward == INF or backward == INF:
            continue
        if forward + backward < -1e-9:
            convicted.append(link)
            cycles.append((p, q))
            working[(p, q)] = INF
            working[(q, p)] = INF

    # Phase 2: multi-link negative cycles among the remaining links.
    index = ProcessorIndex(system.processors)
    max_rounds = len(list(system.topology.links)) + 1
    for _ in range(max_rounds):
        mls = index.matrix(working)
        found = _most_negative_cycle(mls)
        if found is None or found[0] >= -1e-9:
            break
        cycle = tuple(index.processor(row) for row in found[1])
        cycles.append(cycle)
        victim = _most_suspicious_link(mls, index, cycle)
        suspects.append(system.canonical_link(*victim))
        working[victim] = INF
        working[(victim[1], victim[0])] = INF
    else:  # pragma: no cover - bounded by construction
        raise AssertionError("diagnosis failed to converge")

    return Diagnosis(
        consistent=not convicted and not suspects,
        convicted=tuple(convicted),
        suspects=tuple(suspects),
        negative_cycles=tuple(cycles),
    )


def _most_negative_cycle(
    mls: np.ndarray,
) -> Optional[Tuple[float, List[int]]]:
    """Minimum cycle mean of the finite-``mls~`` digraph and a witness.

    Every cycle lies inside one strongly connected component, and those
    are the mutual-reachability classes of the finite entries (closed on
    a 0/inf copy, so negative cycles cannot blow values up).  In each
    component of two or more rows, Howard on the negated submatrix locates
    a minimum-mean cycle and ``mu`` is its exact mean.  Returns
    ``(mu, rows)`` of the first component with the least ``mu``, or
    ``None`` when no cycle exists.
    """
    reach = np.isfinite(min_plus_closure(np.where(np.isfinite(mls), 0.0, INF)))
    mutual = reach & reach.T
    seen = np.zeros(len(mls), dtype=bool)
    best: Optional[Tuple[float, List[int]]] = None
    for i in range(len(mls)):
        if seen[i]:
            continue
        rows = np.flatnonzero(mutual[i])
        seen[rows] = True
        if len(rows) < 2:
            continue
        negated = -mls[np.ix_(rows, rows)]
        cycle = howard_cycle(negated)
        mu = -cycle_mean(negated, cycle)
        if best is None or mu < best[0]:
            best = (mu, rows[cycle].tolist())
    return best


def _most_suspicious_link(
    mls: np.ndarray, index: ProcessorIndex, cycle: Tuple[ProcessorId, ...]
) -> Edge:
    """Heuristic culprit on a negative cycle: the most negative edge.

    A very negative ``mls~`` edge is the one claiming the tightest
    impossible constraint; dropping it maximally relaxes the cycle.
    """
    best: Optional[Edge] = None
    best_weight = INF
    k = len(cycle)
    for i in range(k):
        u, v = cycle[i], cycle[(i + 1) % k]
        w = float(mls[index.row(u), index.row(v)])
        if w < best_weight:
            best_weight = w
            best = (u, v)
    assert best is not None
    return best


def synchronize_excluding(
    system: System,
    views: Mapping[ProcessorId, View],
    excluded: Tuple[Tuple[ProcessorId, ProcessorId], ...],
) -> SyncResult:
    """Resynchronize with the information of ``excluded`` links discarded.

    Excluded links' local estimates become ``inf`` (no constraint), so
    the result is honest: precision may become infinite or per-component
    if the healthy links no longer connect the system.
    """
    mls_tilde = dict(local_shift_estimates(system, views))
    for link in excluded:
        canonical = system.canonical_link(*link)
        p, q = canonical
        mls_tilde[(p, q)] = INF
        mls_tilde[(q, p)] = INF
    return ClockSynchronizer(system).from_local_estimates(mls_tilde)


def diagnose_and_repair(
    system: System, views: Mapping[ProcessorId, View]
) -> Tuple[Diagnosis, SyncResult]:
    """One-call workflow: screen, exclude, resynchronize."""
    diagnosis = diagnose(system, views)
    result = synchronize_excluding(system, views, diagnosis.excluded_links)
    return diagnosis, result


__all__ = [
    "Diagnosis",
    "diagnose",
    "diagnose_local_estimates",
    "synchronize_excluding",
    "diagnose_and_repair",
]
