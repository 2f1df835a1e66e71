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

from repro._exports import lazy_exports

_EXPORTS = {
    "IncompleteViewsError": "repro.core.estimates",
    "estimated_delays": "repro.core.estimates",
    "local_shift_estimates": "repro.core.estimates",
    "partial_estimated_delays": "repro.core.estimates",
    "true_local_shifts": "repro.core.estimates",
    "InconsistentViewsError": "repro.core.errors",
    "Certificate": "repro.core.optimality",
    "CertificateError": "repro.core.optimality",
    "beats_or_ties": "repro.core.optimality",
    "cycle_mean_under": "repro.core.optimality",
    "verify_certificate": "repro.core.optimality",
    "corrected_starts": "repro.core.precision",
    "realized_spread": "repro.core.precision",
    "rho_bar": "repro.core.precision",
    "rho_bar_true": "repro.core.precision",
    "UnboundedPrecisionError": "repro.core.errors",
    "ClockSynchronizer": "repro.core.synchronizer",
    "ComponentResult": "repro.core.synchronizer",
    "DegradedResult": "repro.core.synchronizer",
    "SyncResult": "repro.core.synchronizer",
}

__all__ = [*_EXPORTS]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
