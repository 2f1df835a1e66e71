"""Order statistics for the benchmark's latency samples."""

from __future__ import annotations

import math
from typing import Sequence

#: A quantile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A quantile was asked of too few samples to be trusted."""


def min_samples(q: float) -> int:
    """Fewest samples for which :func:`percentile` accepts ``q``."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {q}")
    n = MIN_BEYOND
    while n - math.ceil(q * n) < MIN_BEYOND:
        n += 1
    return n


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile; refuses fewer than 10 samples beyond it.

    The value returned is the ``ceil(q * n)``-th smallest sample, so
    ``n - ceil(q * n)`` samples lie beyond it.  Below ``MIN_BEYOND`` of
    those the tail is one or two unlucky samples, not a percentile, and
    :class:`TooFewSamples` is raised instead.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {q}")
    n = len(samples)
    rank = math.ceil(q * n)
    if n - rank < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q * 100:g} of {n} samples has {n - rank} beyond it; "
            f"need {MIN_BEYOND} (at least {min_samples(q)} samples)"
        )
    return sorted(samples)[rank - 1]


__all__ = ["MIN_BEYOND", "TooFewSamples", "min_samples", "percentile"]
