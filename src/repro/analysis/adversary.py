"""The shifting adversary: equivalent executions that stress corrections.

The paper's lower bound (Theorem 4.4) is constructive: because processors
cannot distinguish equivalent executions, an adversary may re-time the
observed execution by any admissible shift vector, and the corrections --
fixed by Claim 3.1 -- must pay for the worst re-timing.  This module
builds those re-timings concretely:

* :func:`extremal_shift_vector` -- the construction inside Lemma 5.3's
  proof: shift every processor by its shortest-path distance (under true
  ``mls`` weights) from an anchor, divided by ``gamma > 1``.  Anchored at
  ``p`` this simultaneously drives *every* ``q`` to ``ms(p, q)/gamma``
  away, so the realized spread of any corrections approaches their
  ``rho_bar`` as ``gamma -> 1``.
* :func:`random_admissible_shift_vector` -- uniform samples along random
  directions of the admissible polytope, for property-based testing
  ("no admissible re-timing ever exceeds ``rho_bar``").
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, Mapping, Optional

from repro._types import INF, ProcessorId, Time
from repro.core.estimates import true_local_shifts
from repro.core.precision import realized_spread
from repro.delays.system import System
from repro.engine.index import ProcessorIndex
from repro.engine.numpy_backend import bellman_ford_matrix
from repro.model.execution import Execution, shift_execution


class AdversaryError(ValueError):
    """The adversarial construction does not apply to this execution."""


def extremal_shift_vector(
    system: System,
    alpha: Execution,
    anchor: ProcessorId,
    gamma: float = 1.0 + 1e-9,
) -> Dict[ProcessorId, Time]:
    """Lemma 5.3's witness: ``s_i = dist_mls(anchor, i) / gamma``.

    Requires every processor to be reachable from ``anchor`` in the
    finite-``mls`` graph (otherwise no finite extremal shift exists for
    the unreachable ones and the precision is unbounded anyway).
    """
    if gamma <= 1.0:
        raise AdversaryError("gamma must be > 1 for strict admissibility")
    index = ProcessorIndex(system.processors)
    mls = index.matrix(true_local_shifts(system, alpha))
    dist = bellman_ford_matrix(mls, index.row(anchor))
    if dist is None:
        raise AdversaryError(
            "true local shifts contain a negative cycle; the execution is "
            "not admissible"
        )
    distances = dict(zip(index, dist.tolist()))
    unreachable = [p for p, d in distances.items() if d == INF]
    if unreachable:
        raise AdversaryError(
            f"processors unreachable from {anchor!r} under finite local "
            f"shifts: {unreachable!r}; precision w.r.t. them is unbounded"
        )
    return {p: d / gamma for p, d in distances.items()}


def adversarial_execution(
    system: System,
    alpha: Execution,
    anchor: ProcessorId,
    gamma: float = 1.0 + 1e-9,
) -> Execution:
    """The extremal equivalent execution anchored at ``anchor``.

    The result is admissible (checked) and indistinguishable from
    ``alpha`` to every processor.
    """
    shifts = extremal_shift_vector(system, alpha, anchor, gamma)
    shifted = shift_execution(alpha, shifts)
    if not system.is_admissible(shifted):
        raise AdversaryError(
            "extremal shift produced an inadmissible execution; "
            "gamma may be too close to 1 for this instance's numerics"
        )
    return shifted


def worst_case_spread(
    system: System,
    alpha: Execution,
    corrections: Mapping[ProcessorId, Time],
    anchors: Optional[Iterable[ProcessorId]] = None,
    gamma: float = 1.0 + 1e-9,
) -> Time:
    """Largest realized spread of ``corrections`` over extremal re-timings.

    Approaches ``rho_bar`` of the corrections from below as
    ``gamma -> 1``; the gap on any finite instance is
    ``O((1 - 1/gamma) * max |ms|)``.
    """
    if anchors is None:
        anchors = system.processors
    worst = realized_spread(alpha.start_times(), corrections)
    for anchor in anchors:
        shifted = adversarial_execution(system, alpha, anchor, gamma)
        spread = realized_spread(shifted.start_times(), corrections)
        if spread > worst:
            worst = spread
    return worst


def random_admissible_shift_vector(
    system: System,
    alpha: Execution,
    rng: random.Random,
    slack: float = 1e-9,
) -> Dict[ProcessorId, Time]:
    """A random admissible shift vector (uniform along a random direction).

    Draws a random direction ``u``, computes the largest ``t`` with
    ``t * u`` admissible (each link contributes a linear cap via
    Lemma 5.2), then returns ``t' * u`` for ``t'`` uniform in
    ``[0, t * (1 - slack)]``.  Always admissible by construction.
    """
    processors = list(system.processors)
    mls = true_local_shifts(system, alpha)
    direction = {p: rng.gauss(0.0, 1.0) for p in processors}
    # Pin one coordinate: shifts are only meaningful up to translation.
    direction[processors[0]] = 0.0

    t_max = INF
    for (p, q) in system.assumptions:
        diff = direction[q] - direction[p]
        for bound, d in ((mls[(p, q)], diff), (mls[(q, p)], -diff)):
            if d > 1e-15 and bound != INF:
                t_max = min(t_max, bound / d)
    if t_max == INF:
        t_max = 1.0 / max(1e-12, max(abs(v) for v in direction.values()) or 1.0)
        t_max *= 100.0  # unconstrained direction: pick an arbitrary range
    t = rng.uniform(0.0, max(0.0, t_max * (1.0 - slack)))
    return {p: direction[p] * t for p in processors}


__all__ = [
    "AdversaryError",
    "extremal_shift_vector",
    "adversarial_execution",
    "worst_case_spread",
    "random_admissible_shift_vector",
]
