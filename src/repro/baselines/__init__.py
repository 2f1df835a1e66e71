"""Baselines and oracles the optimal algorithm is evaluated against.

* :mod:`repro.baselines.ntp_like` -- minimum-filter offset estimation on a
  spanning tree, the practitioner's default (NTP, reference [12]).
* :mod:`repro.baselines.cristian` -- best-round-trip estimation
  (Cristian's probabilistic synchronization, reference [1]).
* :mod:`repro.baselines.lp` -- linear-programming oracles in the style of
  Halpern--Megiddo--Munshi [3]; not a competitor but an independent
  recomputation of ``ms~`` and of the optimal precision, used to certify
  the combinatorial pipeline.

Baselines emit plain correction vectors; the common scoring function is
:func:`repro.core.precision.rho_bar`, so every method is ranked by the
paper's own optimality measure.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "best_round_trip_offset": "repro.baselines.cristian",
    "cristian_corrections": "repro.baselines.cristian",
    "cristian_error_bound": "repro.baselines.cristian",
    "DifferenceConstraint": "repro.baselines.lp",
    "LPError": "repro.baselines.lp",
    "assumption_constraints": "repro.baselines.lp",
    "lp_ms_tilde": "repro.baselines.lp",
    "lp_optimal_corrections": "repro.baselines.lp",
    "system_constraints": "repro.baselines.lp",
    "BaselineError": "repro.baselines.ntp_like",
    "bfs_tree": "repro.baselines.ntp_like",
    "link_offset_estimate": "repro.baselines.ntp_like",
    "ntp_corrections": "repro.baselines.ntp_like",
}

__all__ = [*_EXPORTS]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
