"""The paper's primary contribution: per-instance optimal corrections.

Pipeline (one call to :class:`~repro.core.synchronizer.ClockSynchronizer`):

1. :mod:`repro.core.estimates` -- estimated delays from views (Lemma 6.1)
   and per-link maximal-local-shift estimates ``mls~`` (Section 6).
2. GLOBAL ESTIMATES: shortest paths turn ``mls~`` into global estimates
   ``ms~`` (Theorem 5.5).
3. SHIFTS: Karp's maximum cycle mean gives the optimal precision
   ``A^max``; shortest-path distances under ``A^max - ms~`` give the
   corrections (Theorems 4.4 and 4.6).

Steps 2 and 3 run on a matrix engine (:mod:`repro.engine`); the errors
they raise live in :mod:`repro.core.errors`.

:mod:`repro.core.precision` scores arbitrary correction vectors with the
paper's ``rho_bar`` measure, and :mod:`repro.core.optimality` verifies
optimality certificates.
"""

from repro.core.estimates import (
    IncompleteViewsError,
    estimated_delays,
    local_shift_estimates,
    partial_estimated_delays,
    true_local_shifts,
)
from repro.core.errors import InconsistentViewsError, UnboundedPrecisionError
from repro.core.optimality import (
    Certificate,
    CertificateError,
    beats_or_ties,
    cycle_mean_under,
    verify_certificate,
)
from repro.core.precision import (
    corrected_starts,
    realized_spread,
    rho_bar,
    rho_bar_true,
)
from repro.core.synchronizer import (
    ClockSynchronizer,
    ComponentResult,
    DegradedResult,
    SyncResult,
)

__all__ = [
    "IncompleteViewsError",
    "estimated_delays",
    "local_shift_estimates",
    "partial_estimated_delays",
    "true_local_shifts",
    "InconsistentViewsError",
    "Certificate",
    "CertificateError",
    "beats_or_ties",
    "cycle_mean_under",
    "verify_certificate",
    "corrected_starts",
    "realized_spread",
    "rho_bar",
    "rho_bar_true",
    "UnboundedPrecisionError",
    "ClockSynchronizer",
    "ComponentResult",
    "DegradedResult",
    "SyncResult",
]
