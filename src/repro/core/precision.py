"""Precision measures (paper, Sections 2.2 and 3).

Two quantities matter when judging a correction vector ``x``:

* the *realized spread* ``rho(alpha, x) = max_{p,q} |(S_p - x_p) -
  (S_q - x_q)|`` -- how far apart the corrected clocks actually are in
  this particular execution.  Ground truth; needs the start times.

* the *guaranteed precision* ``rho_bar_alpha(x) = sup { rho(alpha', x) :
  alpha' equivalent to alpha and admissible }`` -- the worst the spread
  could be over every execution the processors cannot distinguish from
  this one.  This is the quantity the paper's optimality notion ranks
  correction functions by.

The central algebraic fact making evaluation tractable: by Claim 4.2 the
supremum is attained at the maximal shifts, giving

    rho_bar_alpha(x) = max_{p != q} ( S_p - x_p - S_q + x_q + ms(p, q) )
                     = max_{p != q} ( ms~(p, q) - x_p + x_q ),

since ``ms~ = ms + S_p - S_q``.  So the worst case over the (infinite)
equivalence class is a finite maximum over ordered pairs -- computable
from views alone, for *any* correction vector, including baselines'.
This is how every experiment scores algorithms exactly instead of by
sampling adversaries.
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

import numpy as np

from repro._types import INF, ProcessorId, Time
from repro.engine.index import pair_submatrix


def corrected_starts(
    start_times: Mapping[ProcessorId, Time],
    corrections: Mapping[ProcessorId, Time],
) -> Dict[ProcessorId, Time]:
    """``S_p - x_p`` per processor: the residual offsets after correction.

    At any real time ``t`` the corrected logical clock of ``p`` reads
    ``t - (S_p - x_p)``, so equal residuals mean perfectly synchronized
    clocks.
    """
    return {p: start_times[p] - corrections[p] for p in start_times}


def realized_spread(
    start_times: Mapping[ProcessorId, Time],
    corrections: Mapping[ProcessorId, Time],
) -> Time:
    """``rho(alpha, x)``: the actual corrected-clock discrepancy.

    Needs ground truth (start times), so only the evaluation harness can
    compute it.  Always ``<= rho_bar`` of the same corrections.
    """
    residuals = corrected_starts(start_times, corrections)
    values = list(residuals.values())
    if len(values) <= 1:
        return 0.0
    return max(values) - min(values)


def rho_bar(
    ms_tilde: Mapping[Tuple[ProcessorId, ProcessorId], Time],
    corrections: Mapping[ProcessorId, Time],
) -> Time:
    """``rho_bar_alpha(x)``: guaranteed worst-case precision of ``x``.

    ``max_{p != q} (ms~(p, q) - x_p + x_q)``; ``inf`` if any pair's
    estimate is infinite (the adversary can shift that pair arbitrarily).
    Computable from views alone -- this is the scoring function used to
    compare SHIFTS against any other correction method on equal footing.

    One array expression over the submatrix, evaluated as ``(ms - x_p) +
    x_q`` and floored at 0: bit-identical to the scalar double loop.
    """
    processors = list(corrections)
    k = len(processors)
    if k <= 1:
        return 0.0
    ms = pair_submatrix(ms_tilde, processors)
    infinite = ms == INF
    np.fill_diagonal(infinite, False)
    if infinite.any():
        return INF
    x = np.array([corrections[p] for p in processors], dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        values = (ms - x[:, None]) + x
    # fmax skips NaN, as the loop skips p == q and NaN values.
    np.fill_diagonal(values, np.nan)
    worst = float(np.fmax.reduce(values, axis=None))
    return worst if worst > 0.0 else 0.0


def rho_bar_true(
    ms_true: Mapping[Tuple[ProcessorId, ProcessorId], Time],
    start_times: Mapping[ProcessorId, Time],
    corrections: Mapping[ProcessorId, Time],
) -> Time:
    """Same quantity computed from ground truth ``ms`` and start times.

    ``max_{p != q} (S_p - x_p - S_q + x_q + ms(p, q))``, i.e.
    :func:`rho_bar` of the residuals ``x_p - S_p``.  Must agree with
    :func:`rho_bar` on estimates (Lemma 4.5's translation identity); the
    test-suite asserts this.
    """
    return rho_bar(
        ms_true, {p: x - start_times[p] for p, x in corrections.items()}
    )


__all__ = ["corrected_starts", "realized_spread", "rho_bar", "rho_bar_true"]
