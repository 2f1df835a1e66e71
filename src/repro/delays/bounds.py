"""Bound-based delay assumptions (paper, Section 6.1).

``BoundedDelay`` realises the classical model of Lundelius--Lynch and
Halpern--Megiddo--Munshi: per-direction lower and upper bounds
``0 <= lb <= ub <= inf``.  Lemma 6.2 gives the maximal local shift

    mls(p, q) = min( ub(q, p) - dmax(q, p),  dmin(p, q) - lb(p, q) ),

and Corollary 6.3 the identical formula on estimated quantities.  Setting
``ub = inf`` yields the lower-bounds-only model; setting additionally
``lb = 0`` yields the fully asynchronous no-bounds model (Corollary 6.4),
for which the *worst-case* precision of any algorithm is unbounded but the
per-execution precision is finite whenever messages flowed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro._types import INF, Time
from repro.delays.base import ADMIT_TOL, DelayAssumption, Term


@dataclass(frozen=True)
class BoundedDelay(DelayAssumption):
    """Per-direction delay bounds, canonical orientation ``(p, q)``.

    Parameters
    ----------
    lb_forward, ub_forward:
        Bounds on the delay of messages from ``p`` to ``q``.
    lb_reverse, ub_reverse:
        Bounds on the delay of messages from ``q`` to ``p``.
    """

    lb_forward: Time = 0.0
    ub_forward: Time = INF
    lb_reverse: Time = 0.0
    ub_reverse: Time = INF

    def __post_init__(self) -> None:
        for lb, ub, label in (
            (self.lb_forward, self.ub_forward, "forward"),
            (self.lb_reverse, self.ub_reverse, "reverse"),
        ):
            if lb < 0:
                raise ValueError(f"{label} lower bound must be >= 0, got {lb}")
            if ub < lb:
                raise ValueError(
                    f"{label} bounds must satisfy lb <= ub, got [{lb}, {ub}]"
                )

    # ------------------------------------------------------------------
    # DelayAssumption interface
    # ------------------------------------------------------------------

    def terms(self) -> Tuple[Term, ...]:
        """Lemma 6.2: ``min(ub(q,p) - dmax(q,p), dmin(p,q) - lb(p,q))``.

        Shifting ``q`` earlier by ``s`` shortens every ``p -> q`` delay by
        ``s`` (bounded below by ``lb_forward``) and lengthens every
        ``q -> p`` delay by ``s`` (bounded above by ``ub_reverse``).
        """
        return (Term.upper(self.ub_reverse), Term.lower(self.lb_forward))

    def admits(self, forward: Sequence[Time], reverse: Sequence[Time]) -> bool:
        ok_fwd = all(
            self.lb_forward - ADMIT_TOL <= d <= self.ub_forward + ADMIT_TOL
            for d in forward
        )
        ok_rev = all(
            self.lb_reverse - ADMIT_TOL <= d <= self.ub_reverse + ADMIT_TOL
            for d in reverse
        )
        return ok_fwd and ok_rev

    def flipped(self) -> "BoundedDelay":
        return BoundedDelay(
            lb_forward=self.lb_reverse,
            ub_forward=self.ub_reverse,
            lb_reverse=self.lb_forward,
            ub_reverse=self.ub_forward,
        )

    # ------------------------------------------------------------------
    # Convenience constructors for the paper's named special cases
    # ------------------------------------------------------------------

    @staticmethod
    def symmetric(lb: Time, ub: Time) -> "BoundedDelay":
        """Same ``[lb, ub]`` in both directions (the common benchmark case)."""
        return BoundedDelay(
            lb_forward=lb, ub_forward=ub, lb_reverse=lb, ub_reverse=ub
        )

    @property
    def has_upper_bounds(self) -> bool:
        """Whether any direction has a finite upper bound."""
        return self.ub_forward != INF or self.ub_reverse != INF


def lower_bounds_only(lb_forward: Time, lb_reverse: Time = None) -> BoundedDelay:
    """Model 2 of the introduction: only lower bounds are known.

    Follows the observation of Cristian [1] that real links have a minimal
    delay (transmission rate plus processing time) even when no useful
    upper bound exists.
    """
    if lb_reverse is None:
        lb_reverse = lb_forward
    return BoundedDelay(
        lb_forward=lb_forward,
        ub_forward=INF,
        lb_reverse=lb_reverse,
        ub_reverse=INF,
    )


def no_bounds() -> BoundedDelay:
    """Model 3: a completely asynchronous link (only ``d >= 0`` is known).

    Corollary 6.4: ``mls(p, q) = dmin(p, q)``.
    """
    return BoundedDelay()


__all__ = ["BoundedDelay", "lower_bounds_only", "no_bounds"]
