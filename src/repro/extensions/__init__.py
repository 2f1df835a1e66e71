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

from repro.extensions.drift import (
    DriftingClocks,
    ResyncRound,
    corrected_spread,
    periodic_resync,
    probe_round_stats,
)
from repro.extensions.external_time import (
    anchor_to_real_time,
    real_time_error_bounds,
    realized_real_time_errors,
)
from repro.extensions.leader import (
    Assign,
    EdgeStats,
    LeaderSyncAutomaton,
    NodeState,
    ProtocolIncomplete,
    Report,
    TimestampedProbe,
    corrections_from_execution,
    leader_automata,
    tree_routing,
)
from repro.extensions.online import OnlineSynchronizer
from repro.extensions.probabilistic import (
    DelayDistribution,
    EmpiricalDelay,
    ExponentialDelay,
    ProbabilisticResult,
    UniformDelayDistribution,
    derive_bounded_system,
    probabilistic_synchronize,
)
from repro.extensions.windowed_bias import (
    TimedObservation,
    WindowedBias,
    observations_from_views,
    synchronize_windowed,
    windowed_local_estimates,
)

__all__ = [
    "OnlineSynchronizer",
    "DelayDistribution",
    "EmpiricalDelay",
    "ExponentialDelay",
    "ProbabilisticResult",
    "UniformDelayDistribution",
    "derive_bounded_system",
    "probabilistic_synchronize",
    "TimedObservation",
    "WindowedBias",
    "observations_from_views",
    "synchronize_windowed",
    "windowed_local_estimates",
    "DriftingClocks",
    "ResyncRound",
    "corrected_spread",
    "periodic_resync",
    "probe_round_stats",
    "anchor_to_real_time",
    "real_time_error_bounds",
    "realized_real_time_errors",
    "Assign",
    "EdgeStats",
    "LeaderSyncAutomaton",
    "NodeState",
    "ProtocolIncomplete",
    "Report",
    "TimestampedProbe",
    "corrections_from_execution",
    "leader_automata",
    "tree_routing",
]
