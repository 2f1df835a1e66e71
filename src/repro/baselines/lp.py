"""Linear-programming oracles (Halpern--Megiddo--Munshi style).

The paper positions its combinatorial pipeline as a replacement for the
linear-programming techniques of Halpern, Megiddo and Munshi [3] ("their
results become a special case").  These LPs are the independent oracle
the reproduction uses to *prove* that claim numerically:

* :func:`lp_optimal_corrections` -- minimise the guaranteed precision
  ``max_{p,q} (ms~(p,q) - x_p + x_q)`` directly as an LP.  Its optimum
  must equal SHIFTS' ``A^max`` (LP duality of the maximum cycle mean) and
  its argmin must tie SHIFTS under ``rho_bar``.

* :func:`lp_ms_tilde` -- recompute every ``ms~(p, q)`` from first
  principles: maximise ``y_q - y_p`` over shift potentials ``y`` subject
  to one difference constraint per message (and per opposite-direction
  extreme pair for bias links).  Must equal GLOBAL ESTIMATES' shortest
  paths.  Unboundedness maps to ``ms~ = inf``.

Both use :func:`scipy.optimize.linprog` (HiGHS).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linprog

from repro._types import INF, NEG_INF, ProcessorId, Time
from repro.core.estimates import estimated_delays
from repro.engine.index import ProcessorIndex, pair_submatrix
from repro.delays.base import DelayAssumption
from repro.delays.bias import RoundTripBias, RoundTripBiasUnsigned
from repro.delays.bounds import BoundedDelay
from repro.delays.composite import Composite
from repro.delays.system import System
from repro.model.views import View


class LPError(RuntimeError):
    """The LP solver failed or reported an infeasible instance."""


@dataclass(frozen=True)
class DifferenceConstraint:
    """``low <= y_u - y_v <= high`` (either bound may be infinite)."""

    u: ProcessorId
    v: ProcessorId
    low: Time
    high: Time


def assumption_constraints(
    assumption: DelayAssumption,
    p: ProcessorId,
    q: ProcessorId,
    fwd: Sequence[Time],
    rev: Sequence[Time],
) -> List[DifferenceConstraint]:
    """Difference constraints on shift potentials implied by one link.

    A shift vector ``y`` keeps the execution admissible iff the shifted
    estimated delay ``d~(m) + y_u - y_v`` of every message ``m: u -> v``
    satisfies the link's restriction.  Per Lemmas 6.2/6.5 only the extreme
    delays bind, so each restriction compiles to a constant number of
    difference constraints on ``y_p - y_q``.
    """
    constraints: List[DifferenceConstraint] = []
    if isinstance(assumption, Composite):
        for component in assumption.components:
            constraints.extend(assumption_constraints(component, p, q, fwd, rev))
        return constraints

    if isinstance(assumption, BoundedDelay):
        # lb <= d~ + y_p - y_q <= ub for every forward message.
        if fwd:
            constraints.append(
                DifferenceConstraint(
                    u=p,
                    v=q,
                    low=assumption.lb_forward - min(fwd),
                    high=assumption.ub_forward - max(fwd),
                )
            )
        if rev:
            constraints.append(
                DifferenceConstraint(
                    u=q,
                    v=p,
                    low=assumption.lb_reverse - min(rev),
                    high=assumption.ub_reverse - max(rev),
                )
            )
        return constraints

    if isinstance(assumption, (RoundTripBias, RoundTripBiasUnsigned)):
        b = assumption.bias
        if fwd and rev:
            # |(d~(m1) + y_p - y_q) - (d~(m2) + y_q - y_p)| <= b, extremes.
            constraints.append(
                DifferenceConstraint(
                    u=p,
                    v=q,
                    low=(-b - min(fwd) + max(rev)) / 2.0,
                    high=(b - max(fwd) + min(rev)) / 2.0,
                )
            )
        if isinstance(assumption, RoundTripBias):
            # Non-negativity of all shifted delays.
            if fwd:
                constraints.append(
                    DifferenceConstraint(u=p, v=q, low=-min(fwd), high=INF)
                )
            if rev:
                constraints.append(
                    DifferenceConstraint(u=q, v=p, low=-min(rev), high=INF)
                )
        return constraints

    raise LPError(
        f"no LP compilation known for assumption type {type(assumption).__name__}"
    )


def system_constraints(
    system: System, views: Mapping[ProcessorId, View]
) -> List[DifferenceConstraint]:
    """All difference constraints of the system for one execution's views."""
    est = estimated_delays(views)
    constraints: List[DifferenceConstraint] = []
    for (p, q), assumption in system.assumptions.items():
        fwd = est.get((p, q), [])
        rev = est.get((q, p), [])
        constraints.extend(assumption_constraints(assumption, p, q, fwd, rev))
    return constraints


def _solve_max_difference(
    index: ProcessorIndex,
    constraints: Sequence[DifferenceConstraint],
    p: ProcessorId,
    q: ProcessorId,
) -> Time:
    """``max (y_q - y_p)`` subject to the difference constraints."""
    n = len(index)
    c = np.zeros(n)
    c[index.row(q)] = -1.0  # linprog minimises; we want max y_q - y_p
    c[index.row(p)] = 1.0

    rows: List[np.ndarray] = []
    rhs: List[float] = []
    for con in constraints:
        iu, iv = index.row(con.u), index.row(con.v)
        if con.high != INF:
            row = np.zeros(n)
            row[iu] = 1.0
            row[iv] = -1.0
            rows.append(row)
            rhs.append(con.high)
        if con.low != NEG_INF:
            row = np.zeros(n)
            row[iu] = -1.0
            row[iv] = 1.0
            rows.append(row)
            rhs.append(-con.low)
    # Pin y_p = 0 to remove the translation degree of freedom.
    a_eq = np.zeros((1, n))
    a_eq[0, index.row(p)] = 1.0

    result = linprog(
        c,
        A_ub=np.array(rows) if rows else None,
        b_ub=np.array(rhs) if rhs else None,
        A_eq=a_eq,
        b_eq=np.zeros(1),
        bounds=[(None, None)] * n,
        method="highs",
    )
    if result.status == 3:  # unbounded
        return INF
    if result.status == 2:
        raise LPError("infeasible shift LP: views violate the assumptions")
    if result.status != 0:
        raise LPError(f"LP solver failed: {result.message}")
    return -result.fun


def lp_ms_tilde(
    system: System, views: Mapping[ProcessorId, View]
) -> Dict[Tuple[ProcessorId, ProcessorId], Time]:
    """Every ``ms~(p, q)`` recomputed as a per-pair LP (oracle for Thm 5.5)."""
    index = ProcessorIndex(system.processors)
    constraints = system_constraints(system, views)
    out: Dict[Tuple[ProcessorId, ProcessorId], Time] = {}
    for p in index:
        for q in index:
            if p == q:
                out[(p, q)] = 0.0
            else:
                out[(p, q)] = _solve_max_difference(index, constraints, p, q)
    return out


def lp_optimal_corrections(
    processors: Sequence[ProcessorId],
    ms_tilde: Mapping[Tuple[ProcessorId, ProcessorId], Time],
    root: Optional[ProcessorId] = None,
) -> Tuple[Dict[ProcessorId, Time], Time]:
    """Minimise ``rho_bar`` directly: LP oracle for SHIFTS (Thms 4.4/4.6).

    Returns ``(corrections, epsilon)`` with ``x_root = 0``.  ``epsilon``
    must equal ``A^max`` by LP duality of the maximum cycle mean.

    The constraint matrix (one row ``ms~(p,q) - x_p + x_q <= eps`` per
    ordered pair) is assembled from the dense ``ms~`` matrix with array
    indexing rather than a per-pair Python loop.
    """
    index = ProcessorIndex(processors)
    n = len(index)
    if root is None:
        root = index.processor(0)
    ms_matrix = pair_submatrix(ms_tilde, index.processors)
    off_diagonal = ~np.eye(n, dtype=bool)
    p_rows, q_rows = np.nonzero(off_diagonal & np.isinf(ms_matrix))
    if len(p_rows):
        p, q = index.processor(int(p_rows[0])), index.processor(int(q_rows[0]))
        raise LPError(
            f"ms~({p!r}, {q!r}) is infinite; no finite precision exists"
        )

    # Variables: x_0 .. x_{n-1}, epsilon.
    c = np.zeros(n + 1)
    c[n] = 1.0

    p_rows, q_rows = np.nonzero(off_diagonal)
    n_rows = len(p_rows)
    a_ub = np.zeros((n_rows, n + 1))
    arange = np.arange(n_rows)
    a_ub[arange, p_rows] = -1.0
    a_ub[arange, q_rows] = 1.0
    a_ub[:, n] = -1.0
    b_ub = -ms_matrix[p_rows, q_rows]

    a_eq = np.zeros((1, n + 1))
    a_eq[0, index.row(root)] = 1.0

    result = linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=np.zeros(1),
        bounds=[(None, None)] * (n + 1),
        method="highs",
    )
    if result.status != 0:
        raise LPError(f"LP solver failed: {result.message}")
    corrections = {
        proc: float(result.x[index.row(proc)]) for proc in index
    }
    return corrections, float(result.fun)


__all__ = [
    "LPError",
    "DifferenceConstraint",
    "assumption_constraints",
    "system_constraints",
    "lp_ms_tilde",
    "lp_optimal_corrections",
]
