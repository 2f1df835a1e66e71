"""The two ways the pipeline refuses an input.

* :class:`InconsistentViewsError` -- GLOBAL ESTIMATES found a negative
  cycle of local-shift estimates (Theorem 5.5 rules one out for any
  admissible execution);
* :class:`UnboundedPrecisionError` -- SHIFTS was asked for a set of
  processors containing a pair with infinite ``ms~``.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro._types import ProcessorId


class InconsistentViewsError(ValueError):
    """The local-shift estimates admit a negative cycle.

    No admissible execution can produce such estimates (the cycle weight
    under ``mls~`` equals the cycle weight under ``mls >= 0``); the usual
    cause is a delay assumption the observed delays actually violate.
    """


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


__all__ = ["InconsistentViewsError", "UnboundedPrecisionError"]
