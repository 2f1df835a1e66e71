"""repro: optimal clock synchronization under different delay assumptions.

A complete, executable reproduction of Attiya, Herzberg & Rajsbaum,
*Optimal Clock Synchronization under Different Delay Assumptions*
(PODC 1993): the formal model, the per-instance-optimal synchronization
pipeline (estimated delays -> local shifts -> GLOBAL ESTIMATES -> SHIFTS),
the four delay models of the paper plus arbitrary compositions, a
discrete-event network simulator to generate admissible executions,
baselines (NTP-style, Cristian-style, and the Halpern--Megiddo--Munshi
linear program), and an evaluation harness implementing the paper's
``rho_bar`` optimality measure exactly.

Quickstart -- the two documented entry points are :func:`repro.run`
(one execution -> certified-optimal corrections) and :func:`repro.sweep`
(a whole builders x topologies x seeds grid -> one summary table, with
optional ``workers=``/``shard=``/``cache_dir=`` for parallel, sharded
and cached sweeps)::

    import repro
    from repro import (
        BoundedDelay, NetworkSimulator, System, UniformDelay,
        draw_start_times, probe_automata, probe_schedule, ring,
    )

    topo = ring(5)
    system = System.uniform(topo, BoundedDelay.symmetric(1.0, 3.0))
    samplers = {link: UniformDelay(1.0, 3.0) for link in topo.links}
    starts = draw_start_times(topo.nodes, max_skew=10.0, seed=7)
    sim = NetworkSimulator(system, samplers, starts, seed=7)
    alpha = sim.run(probe_automata(topo, probe_schedule(3, 20.0, 5.0)))

    result = repro.run(system, alpha)      # certified optimal by default
    print(result.precision, result.corrections)

    from repro.workloads import bounded_uniform
    table = repro.sweep(
        {"bounded": lambda t, s: bounded_uniform(t, 1.0, 3.0, seed=s)},
        [ring(4), ring(6)],
        seeds=range(3),
        workers=4,                         # parallel across processes
    )
    table.show()

The pieces behind the facade (:class:`ClockSynchronizer`, the
:class:`~repro.workloads.Campaign` sweep API, the simulator, the delay
models) remain importable for callers that need intermediate artifacts.
"""

from repro.api import run, sweep
from repro.session import ObsOptions, Session, resolve_source
from repro.core import (
    Certificate,
    CertificateError,
    ClockSynchronizer,
    ComponentResult,
    DegradedResult,
    IncompleteViewsError,
    InconsistentViewsError,
    SyncResult,
    UnboundedPrecisionError,
    beats_or_ties,
    corrected_starts,
    cycle_mean_under,
    estimated_delays,
    local_shift_estimates,
    realized_spread,
    rho_bar,
    rho_bar_true,
    true_local_shifts,
    verify_certificate,
)
from repro.delays import (
    AsymmetricUniform,
    Bimodal,
    BoundedDelay,
    Composite,
    Constant,
    CorrelatedLoad,
    DelayAssumption,
    DelaySampler,
    Direction,
    DirectionStats,
    PairTiming,
    RoundTripBias,
    RoundTripBiasUnsigned,
    ShiftedExponential,
    System,
    TruncatedNormal,
    UniformDelay,
    lower_bounds_only,
    no_bounds,
)
from repro.graphs import (
    Topology,
    binary_tree,
    complete,
    grid,
    hypercube,
    line,
    random_connected,
    ring,
    star,
)
from repro.model import (
    Execution,
    History,
    Message,
    Step,
    View,
    executions_equivalent,
    shift_execution,
    shift_history,
)
from repro.sim import (
    Automaton,
    NetworkSimulator,
    SimulationConfig,
    SimulationError,
    draw_start_times,
    echo_automata,
    flood_automata,
    probe_automata,
    probe_schedule,
)

__version__ = "1.1.0"

__all__ = [
    # facade
    "run",
    "sweep",
    # session / config
    "ObsOptions",
    "Session",
    "resolve_source",
    # core
    "Certificate",
    "CertificateError",
    "ClockSynchronizer",
    "ComponentResult",
    "DegradedResult",
    "IncompleteViewsError",
    "InconsistentViewsError",
    "SyncResult",
    "UnboundedPrecisionError",
    "beats_or_ties",
    "corrected_starts",
    "cycle_mean_under",
    "estimated_delays",
    "local_shift_estimates",
    "realized_spread",
    "rho_bar",
    "rho_bar_true",
    "true_local_shifts",
    "verify_certificate",
    # delays
    "AsymmetricUniform",
    "Bimodal",
    "BoundedDelay",
    "Composite",
    "Constant",
    "CorrelatedLoad",
    "DelayAssumption",
    "DelaySampler",
    "Direction",
    "DirectionStats",
    "PairTiming",
    "RoundTripBias",
    "RoundTripBiasUnsigned",
    "ShiftedExponential",
    "System",
    "TruncatedNormal",
    "UniformDelay",
    "lower_bounds_only",
    "no_bounds",
    # graphs / topologies
    "Topology",
    "binary_tree",
    "complete",
    "grid",
    "hypercube",
    "line",
    "random_connected",
    "ring",
    "star",
    # model
    "Execution",
    "History",
    "Message",
    "Step",
    "View",
    "executions_equivalent",
    "shift_execution",
    "shift_history",
    # sim
    "Automaton",
    "NetworkSimulator",
    "SimulationConfig",
    "SimulationError",
    "draw_start_times",
    "echo_automata",
    "flood_automata",
    "probe_automata",
    "probe_schedule",
    "__version__",
]
