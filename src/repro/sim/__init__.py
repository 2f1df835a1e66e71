"""Discrete-event simulation of message-passing systems.

The simulator is the substrate the paper's theory runs on: it produces
admissible executions of a system ``(G, A)`` by driving processor automata
(:mod:`repro.sim.processor`) over sampled message delays
(:mod:`repro.delays.distributions`) and recording ground-truth histories.
Processors themselves only ever observe clock times, so any algorithm
simulated here automatically satisfies the view-only restriction that the
paper's optimality notion (Claim 3.1) relies on.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "NetworkSimulator": "repro.sim.network",
    "RunSummary": "repro.sim.network",
    "SimulationConfig": "repro.sim.network",
    "SimulationError": "repro.sim.network",
    "draw_start_times": "repro.sim.network",
    "Automaton": "repro.sim.processor",
    "IdleAutomaton": "repro.sim.processor",
    "Send": "repro.sim.processor",
    "SetTimer": "repro.sim.processor",
    "Transition": "repro.sim.processor",
    "Echo": "repro.sim.protocols",
    "EchoAutomaton": "repro.sim.protocols",
    "FloodAutomaton": "repro.sim.protocols",
    "Probe": "repro.sim.protocols",
    "ProbeAutomaton": "repro.sim.protocols",
    "echo_automata": "repro.sim.protocols",
    "flood_automata": "repro.sim.protocols",
    "probe_automata": "repro.sim.protocols",
    "probe_schedule": "repro.sim.protocols",
    "EventScheduler": "repro.sim.scheduler",
}

__all__ = [*_EXPORTS]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
