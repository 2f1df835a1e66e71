"""Round-trip bias assumption (paper, Section 6.2).

In many bidirectional links no useful absolute delay bounds exist, but
the delays in the two directions track each other: when one direction is
loaded, so is the other.  The model bounds the *difference* between the
delay of any message in one direction and any message in the other:

    |d(m_p) - d(m_q)| <= b(p, q)    for all opposite-direction pairs,

together with non-negativity of all delays.  Lemma 6.5 (whose proof the
paper gives in full, via the decomposition theorem) yields

    mls(p, q) = min( dmin(p, q),
                     (b + dmin(p, q) - dmax(q, p)) / 2 ),

and Corollary 6.6 the same formula on estimated delays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro._types import Time
from repro.delays.base import ADMIT_TOL, DelayAssumption, Term


@dataclass(frozen=True)
class RoundTripBias(DelayAssumption):
    """Bound ``b`` on the bias between opposite-direction delays.

    The bound is symmetric (``b(p, q) = b(q, p)`` in the paper), so the
    assumption is its own flip.
    """

    bias: Time

    def __post_init__(self) -> None:
        if self.bias < 0:
            raise ValueError(f"bias bound must be >= 0, got {self.bias}")

    def terms(self) -> Tuple[Term, ...]:
        """Lemma 6.5: ``min(dmin(p,q), (b + dmin(p,q) - dmax(q,p)) / 2)``.

        Shifting ``q`` earlier by ``s`` raises every ``q -> p`` delay by
        ``s`` and lowers every ``p -> q`` delay by ``s``, changing each
        opposite-direction difference by ``2 s``; the binding pair is the
        current extreme one, giving the ``/ 2`` term.  The ``dmin(p, q)``
        term is the non-negativity constraint (via Theorem 5.6 the two
        compose by ``min``).
        """
        return (Term.lower(0.0), Term.bias(self.bias))

    def admits(self, forward: Sequence[Time], reverse: Sequence[Time]) -> bool:
        if any(d < -ADMIT_TOL for d in forward):
            return False
        if any(d < -ADMIT_TOL for d in reverse):
            return False
        if not forward or not reverse:
            return True
        # |d(m_p) - d(m_q)| <= b for *every* opposite pair reduces to the
        # extremes: max_fwd - min_rev <= b and max_rev - min_fwd <= b.
        return (
            max(forward) - min(reverse) <= self.bias + ADMIT_TOL
            and max(reverse) - min(forward) <= self.bias + ADMIT_TOL
        )

    def flipped(self) -> "RoundTripBias":
        return self


@dataclass(frozen=True)
class RoundTripBiasUnsigned(DelayAssumption):
    """The bias bound *without* the non-negativity restriction.

    This is the auxiliary system ``A''`` in the proof of Lemma 6.5 (delays
    may be negative); it exists mainly so the test-suite can replay the
    paper's decomposition argument: ``A[b] = A' (nonneg) ∩ A''`` and hence
    ``mls = min(mls', mls'')`` by Theorem 5.6.
    """

    bias: Time

    def __post_init__(self) -> None:
        if self.bias < 0:
            raise ValueError(f"bias bound must be >= 0, got {self.bias}")

    def terms(self) -> Tuple[Term, ...]:
        return (Term.bias(self.bias),)

    def admits(self, forward: Sequence[Time], reverse: Sequence[Time]) -> bool:
        if not forward or not reverse:
            return True
        return (
            max(forward) - min(reverse) <= self.bias + ADMIT_TOL
            and max(reverse) - min(forward) <= self.bias + ADMIT_TOL
        )

    def flipped(self) -> "RoundTripBiasUnsigned":
        return self


__all__ = ["RoundTripBias", "RoundTripBiasUnsigned"]
