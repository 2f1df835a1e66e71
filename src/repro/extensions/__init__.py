"""Extensions beyond the paper's core results (its Section 7 agenda).

* :mod:`repro.extensions.leader` -- the leader-based distributed protocol
  the paper sketches as an open question, implemented as simulator
  automata with tree routing and sufficient-statistics reports
  (optionally over the shared reliable transport, surviving loss).
* :mod:`repro.extensions.drift` -- drifting clocks with periodic
  resynchronization (the Kopetz--Ochsenreiter regime of footnote 1).
* :mod:`repro.extensions.external_time` -- anchoring corrected clocks to
  real time via a reference processor.
* :mod:`repro.extensions.windowed_bias` -- the "messages sent around the
  same time" refinement of the bias model that Section 6.2 defers to the
  full version.
* :mod:`repro.extensions.online` -- a streaming synchronizer maintaining
  sufficient statistics incrementally.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "OnlineSynchronizer": "repro.extensions.online",
    "DelayDistribution": "repro.extensions.probabilistic",
    "EmpiricalDelay": "repro.extensions.probabilistic",
    "ExponentialDelay": "repro.extensions.probabilistic",
    "ProbabilisticResult": "repro.extensions.probabilistic",
    "UniformDelayDistribution": "repro.extensions.probabilistic",
    "derive_bounded_system": "repro.extensions.probabilistic",
    "probabilistic_synchronize": "repro.extensions.probabilistic",
    "TimedObservation": "repro.extensions.windowed_bias",
    "WindowedBias": "repro.extensions.windowed_bias",
    "observations_from_views": "repro.extensions.windowed_bias",
    "synchronize_windowed": "repro.extensions.windowed_bias",
    "windowed_local_estimates": "repro.extensions.windowed_bias",
    "DriftingClocks": "repro.extensions.drift",
    "ResyncRound": "repro.extensions.drift",
    "corrected_spread": "repro.extensions.drift",
    "periodic_resync": "repro.extensions.drift",
    "probe_round_stats": "repro.extensions.drift",
    "anchor_to_real_time": "repro.extensions.external_time",
    "real_time_error_bounds": "repro.extensions.external_time",
    "realized_real_time_errors": "repro.extensions.external_time",
    "Assign": "repro.extensions.leader",
    "EdgeStats": "repro.extensions.leader",
    "LeaderSyncAutomaton": "repro.extensions.leader",
    "NodeState": "repro.extensions.leader",
    "ProtocolIncomplete": "repro.extensions.leader",
    "Report": "repro.extensions.leader",
    "TimestampedProbe": "repro.extensions.leader",
    "corrections_from_execution": "repro.extensions.leader",
    "leader_automata": "repro.extensions.leader",
    "tree_routing": "repro.extensions.leader",
}

__all__ = [*_EXPORTS]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
