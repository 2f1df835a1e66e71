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
``import repro`` itself loads only the package shells: each name below
imports its layer on first use (:mod:`repro._exports`).
"""

from repro._exports import lazy_exports

_EXPORTS = {
    # facade
    "run": "repro.api",
    "sweep": "repro.api",
    # session / config
    "ObsOptions": "repro.session",
    "Session": "repro.session",
    "resolve_source": "repro.session",
    # core
    "Certificate": "repro.core.optimality",
    "CertificateError": "repro.core.optimality",
    "ClockSynchronizer": "repro.core.synchronizer",
    "ComponentResult": "repro.core.synchronizer",
    "DegradedResult": "repro.core.synchronizer",
    "IncompleteViewsError": "repro.core.estimates",
    "InconsistentViewsError": "repro.core.errors",
    "SyncResult": "repro.core.synchronizer",
    "UnboundedPrecisionError": "repro.core.errors",
    "beats_or_ties": "repro.core.optimality",
    "corrected_starts": "repro.core.precision",
    "cycle_mean_under": "repro.core.optimality",
    "estimated_delays": "repro.core.estimates",
    "local_shift_estimates": "repro.core.estimates",
    "realized_spread": "repro.core.precision",
    "rho_bar": "repro.core.precision",
    "rho_bar_true": "repro.core.precision",
    "true_local_shifts": "repro.core.estimates",
    "verify_certificate": "repro.core.optimality",
    # delays
    "AsymmetricUniform": "repro.delays.distributions",
    "Bimodal": "repro.delays.distributions",
    "BoundedDelay": "repro.delays.bounds",
    "Composite": "repro.delays.composite",
    "Constant": "repro.delays.distributions",
    "CorrelatedLoad": "repro.delays.distributions",
    "DelayAssumption": "repro.delays.base",
    "DelaySampler": "repro.delays.distributions",
    "Direction": "repro.delays.distributions",
    "DirectionStats": "repro.delays.base",
    "PairTiming": "repro.delays.base",
    "RoundTripBias": "repro.delays.bias",
    "RoundTripBiasUnsigned": "repro.delays.bias",
    "ShiftedExponential": "repro.delays.distributions",
    "System": "repro.delays.system",
    "TruncatedNormal": "repro.delays.distributions",
    "UniformDelay": "repro.delays.distributions",
    "lower_bounds_only": "repro.delays.bounds",
    "no_bounds": "repro.delays.bounds",
    # graphs / topologies
    "Topology": "repro.graphs.topology",
    "binary_tree": "repro.graphs.topology",
    "complete": "repro.graphs.topology",
    "grid": "repro.graphs.topology",
    "hypercube": "repro.graphs.topology",
    "line": "repro.graphs.topology",
    "random_connected": "repro.graphs.topology",
    "ring": "repro.graphs.topology",
    "star": "repro.graphs.topology",
    # model
    "Execution": "repro.model.execution",
    "History": "repro.model.steps",
    "Message": "repro.model.events",
    "Step": "repro.model.steps",
    "View": "repro.model.views",
    "executions_equivalent": "repro.model.execution",
    "shift_execution": "repro.model.execution",
    "shift_history": "repro.model.steps",
    # sim
    "Automaton": "repro.sim.processor",
    "NetworkSimulator": "repro.sim.network",
    "SimulationConfig": "repro.sim.network",
    "SimulationError": "repro.sim.network",
    "draw_start_times": "repro.sim.network",
    "echo_automata": "repro.sim.protocols",
    "flood_automata": "repro.sim.protocols",
    "probe_automata": "repro.sim.protocols",
    "probe_schedule": "repro.sim.protocols",
}

__version__ = "1.1.0"

__all__ = [*_EXPORTS, "__version__"]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
