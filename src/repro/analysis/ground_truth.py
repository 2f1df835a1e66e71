"""Ground-truth quantities, visible only to the outside observer.

Everything here reads real times out of an :class:`Execution` -- exactly
what the paper's processors (and therefore the synchronizer) must never
do.  The evaluation harness uses these to score algorithms: the true
maximal shifts give the exact worst case ``rho_bar`` of any correction
vector, and the translation identities (``mls~ = mls + S_p - S_q`` etc.)
are checked empirically by the test-suite.
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

from repro._types import ProcessorId, Time
from repro.core.errors import InconsistentViewsError
from repro.core.estimates import true_local_shifts
from repro.delays.system import System
from repro.engine.index import PairView, ProcessorIndex
from repro.engine.numpy_backend import has_negative_diagonal, min_plus_closure
from repro.model.execution import Execution


def true_global_shifts(
    system: System, alpha: Execution
) -> Dict[Tuple[ProcessorId, ProcessorId], Time]:
    """``ms(p, q)`` for every ordered pair, from actual delays.

    Lemma 5.3: the shortest-path computation of GLOBAL ESTIMATES applied
    to the true local shifts yields the true global shifts.
    """
    index = ProcessorIndex(system.processors)
    ms = min_plus_closure(index.matrix(true_local_shifts(system, alpha)))
    if has_negative_diagonal(ms):
        raise InconsistentViewsError(
            "true local shifts contain a negative cycle; the execution is "
            "not admissible"
        )
    return dict(PairView(ms, index))


def locally_admissible_interval(
    system: System,
    alpha: Execution,
    p: ProcessorId,
    q: ProcessorId,
) -> Tuple[Time, Time]:
    """The interval of locally admissible shifts of ``q`` w.r.t. ``p``.

    By Assumption 1 the admissible shifts form an interval; its endpoints
    are ``[-mls(q, p), mls(p, q)]`` (a shift of ``q`` by ``s`` w.r.t.
    ``p`` is a shift of ``p`` by ``-s`` w.r.t. ``q``).
    """
    mls = true_local_shifts(system, alpha)
    link = system.canonical_link(p, q)
    if link == (p, q):
        return (-mls[(q, p)], mls[(p, q)])
    return (-mls[(q, p)], mls[(p, q)])


def shift_vector_is_admissible(
    system: System,
    alpha: Execution,
    shifts: Mapping[ProcessorId, Time],
    tol: float = 1e-9,
) -> bool:
    """Lemma 5.2 as a predicate: a shift vector is admissible iff every
    link's pairwise difference is a locally admissible shift.

    Cheaper than materialising the shifted execution, and exact: for each
    link ``(p, q)`` check ``-mls(q,p) <= s_q - s_p <= mls(p,q)``.
    """
    mls = true_local_shifts(system, alpha)
    for (p, q) in system.assumptions:
        diff = shifts.get(q, 0.0) - shifts.get(p, 0.0)
        if diff > mls[(p, q)] + tol:
            return False
        if -diff > mls[(q, p)] + tol:
            return False
    return True


__all__ = [
    "true_global_shifts",
    "locally_admissible_interval",
    "shift_vector_is_admissible",
]
