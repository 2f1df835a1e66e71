"""Delay assumptions: the abstract interface (paper, Sections 5 and 6).

A *delay assumption* attached to a link ``{p, q}`` defines the locally
admissible pairs of histories ``A_{p,q}`` -- equivalently, which message
delays on that link are allowed.  For the synchronization pipeline an
assumption must answer exactly two questions:

1. ``admits(forward, reverse)`` -- are these actual delays allowed?
   (Used by the simulator to validate its own draws and by the adversary
   when constructing equivalent admissible executions.)
2. ``terms()`` -- the link's Section 6 formula for the maximal local
   shift of ``q`` w.r.t. ``p``.  Lemmas 6.2 and 6.5 show it depends only
   on two extreme delays, ``dmin(p, q)`` and ``dmax(q, p)``, and is a
   minimum of linear :class:`Term` s in them; Theorem 5.6 composes
   assumptions by concatenating their terms.  ``mls_bound(timing)``
   evaluates the terms for one link, and
   :class:`~repro.delays.system.System` compiles them into arrays that
   evaluate every link of a system at once.

The same formula serves double duty: fed *true* delays it yields
``mls(p,q)``; fed *estimated* delays (``d~ = d + S_p - S_q``, computable
from views by Lemma 6.1) it yields the estimate ``mls~(p,q)`` -- because
the formulas are translations by ``S_p - S_q`` of one another
(Corollaries 6.3 and 6.6).

Orientation convention: every assumption instance is written relative to a
*canonical* orientation ``(p, q)`` of its link.  ``mls_bound`` answers for
that orientation; :meth:`DelayAssumption.flipped` returns the instance that
answers for ``(q, p)``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Tuple

from repro._types import INF, NEG_INF, Time

#: Numerical slack used by admissibility checks.
ADMIT_TOL = 1e-9


@dataclass(frozen=True)
class DirectionStats:
    """Extreme delays observed in one direction of a link.

    With no messages in that direction the paper's convention applies:
    ``min_delay = +inf`` and ``max_delay = -inf`` (Section 6.1), which
    makes every formula degrade gracefully to "unconstrained".
    """

    count: int = 0
    min_delay: Time = INF
    max_delay: Time = NEG_INF

    @staticmethod
    def of(delays: Sequence[Time]) -> "DirectionStats":
        """Summarise a list of delays (empty list = the no-messages convention)."""
        if not delays:
            return DirectionStats()
        return DirectionStats(
            count=len(delays),
            min_delay=min(delays),
            max_delay=max(delays),
        )


@dataclass(frozen=True)
class PairTiming:
    """Delay statistics for one link, oriented ``p -> q``.

    ``forward`` summarises messages from ``p`` to ``q``; ``reverse``
    summarises messages from ``q`` to ``p``.  The values may be true delays
    (ground truth) or estimated delays (from views); the assumption
    formulas do not care which.
    """

    forward: DirectionStats = DirectionStats()
    reverse: DirectionStats = DirectionStats()

    def flipped(self) -> "PairTiming":
        """The same data oriented ``q -> p``."""
        return PairTiming(forward=self.reverse, reverse=self.forward)


def _lower(lb, dmin_forward, dmax_reverse):
    return dmin_forward - lb


def _upper(ub, dmin_forward, dmax_reverse):
    return ub - dmax_reverse


def _bias(b, dmin_forward, dmax_reverse):
    return (b + dmin_forward - dmax_reverse) / 2.0


#: Term kind -> formula ``f(constant, dmin(p, q), dmax(q, p))``.  Each
#: is written once and evaluated on floats (one link) and on arrays
#: (every link of a system, see :class:`~repro.delays.system.System`).
FORMULAS = {"lower": _lower, "upper": _upper, "bias": _bias}


class Term(NamedTuple):
    """One Section 6 bound on ``mls(p, q)``, linear in the link's extremes.

    ``kind`` names the formula in :data:`FORMULAS` and ``constant`` is
    the assumption's parameter in it (``lb``, ``ub`` or ``b``).
    """

    kind: str
    constant: Time

    @staticmethod
    def lower(lb: Time) -> "Term":
        """Lemma 6.2: ``dmin(p, q) - lb(p, q)``; ``lb = 0`` is non-negativity."""
        return Term("lower", lb)

    @staticmethod
    def upper(ub: Time) -> "Term":
        """Lemma 6.2: ``ub(q, p) - dmax(q, p)``."""
        return Term("upper", ub)

    @staticmethod
    def bias(b: Time) -> "Term":
        """Lemma 6.5: ``(b + dmin(p, q) - dmax(q, p)) / 2``."""
        return Term("bias", b)

    def value(self, dmin_forward: Time, dmax_reverse: Time) -> Time:
        """The term's value at ``dmin(p, q)``, ``dmax(q, p)``."""
        return FORMULAS[self.kind](self.constant, dmin_forward, dmax_reverse)


class DelayAssumption(ABC):
    """A locally checkable restriction on one link's message delays."""

    @abstractmethod
    def terms(self) -> Tuple[Term, ...]:
        """This assumption's Section 6 formula: ``mls(p, q)`` is the min
        of these terms, oriented along the canonical ``(p, q)``.

        A silent direction (``dmin = +inf`` or ``dmax = -inf``) makes
        every term that reads it ``+inf``: no constraint.
        """

    def mls_bound(self, timing: PairTiming) -> Time:
        """Maximal local shift of ``q`` w.r.t. ``p`` under this assumption.

        ``timing`` must be oriented along this assumption's canonical
        ``(p, q)``.  Returns ``+inf`` when the assumption does not
        constrain that direction at all.
        """
        dmin, dmax = timing.forward.min_delay, timing.reverse.max_delay
        return min(term.value(dmin, dmax) for term in self.terms())

    @abstractmethod
    def admits(self, forward: Sequence[Time], reverse: Sequence[Time]) -> bool:
        """Whether actual delays ``forward`` (p->q) and ``reverse`` (q->p)
        form a locally admissible pair of histories."""

    @abstractmethod
    def flipped(self) -> "DelayAssumption":
        """The assumption as seen from the opposite orientation."""

    def mls_pair(self, timing: PairTiming) -> "tuple[Time, Time]":
        """Convenience: ``(mls(p, q), mls(q, p))`` in one call."""
        return (
            self.mls_bound(timing),
            self.flipped().mls_bound(timing.flipped()),
        )

    # Assumptions are value objects; concrete classes are all frozen
    # dataclasses, so equality and hashing come for free.


__all__ = [
    "ADMIT_TOL",
    "FORMULAS",
    "DirectionStats",
    "PairTiming",
    "Term",
    "DelayAssumption",
]
