"""Ready-made automata for the interactive part of synchronization.

The paper deliberately *separates* the interactive part (who sends what,
when) from the computation of corrections, and only solves the latter
optimally.  These protocols are therefore interchangeable workload
generators; the synchronizer consumes whatever views they produce.

* :class:`ProbeAutomaton` -- each processor sends ``k`` timestamped probes
  to every neighbour at fixed clock times.  The workhorse: it puts
  messages on both directions of every link.
* :class:`EchoAutomaton` -- replies to every probe immediately, NTP
  round-trip style (and also probes on its own schedule if asked).
* :class:`FloodAutomaton` -- an origin floods a token through the network;
  useful for sparse one-direction traffic patterns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Sequence, Tuple

from repro._types import ProcessorId, Time
from repro.graphs.topology import Topology
from repro.model.events import (
    Event,
    MessageReceiveEvent,
    StartEvent,
    TimerEvent,
)
from repro.sim.processor import Automaton, Send, SetTimer, Transition


@dataclass(frozen=True)
class Probe:
    """Payload of a probe message: who sent it and which round it is."""

    origin: ProcessorId
    round: int


@dataclass(frozen=True)
class Echo:
    """Payload of an echo reply: the probe it answers."""

    probe: Probe
    responder: ProcessorId


class ProbeAutomaton(Automaton):
    """Send a probe to every neighbour at each clock time in ``probe_times``.

    States are the number of probe rounds already fired, so histories
    chain and validate trivially.
    """

    def __init__(
        self, me: ProcessorId, neighbors: Sequence[ProcessorId],
        probe_times: Sequence[Time],
    ) -> None:
        if any(t <= 0 for t in probe_times):
            raise ValueError("probe times must be strictly positive clock times")
        self._me = me
        self._neighbors = tuple(neighbors)
        self._probe_times = tuple(sorted(probe_times))

    def initial_state(self) -> Any:
        return 0

    def on_interrupt(self, state: Any, clock_time: Time, event: Event) -> Transition:
        if isinstance(event, StartEvent):
            timers = tuple(SetTimer(t) for t in self._probe_times)
            return Transition(state, (), timers)
        if isinstance(event, TimerEvent):
            # One probe value per round, shared by its sends.  Built when
            # the round fires: a campaign cell builds its automata for one
            # run, and rounds built once per automaton measured slower.
            probe = Probe(self._me, state)
            return Transition(
                state + 1, tuple(Send(n, probe) for n in self._neighbors)
            )
        # Probes from neighbours carry no obligation; ignore.
        return Transition(state)


class EchoAutomaton(Automaton):
    """Reply to every received probe immediately; optionally probe too.

    The immediate reply realises the paper's zero-processing-time
    idealisation; real deployments would fold processing time into the
    link's delay assumption.
    """

    def __init__(
        self,
        me: ProcessorId,
        neighbors: Sequence[ProcessorId] = (),
        probe_times: Sequence[Time] = (),
    ) -> None:
        if any(t <= 0 for t in probe_times):
            raise ValueError("probe times must be strictly positive clock times")
        self._me = me
        self._neighbors = tuple(neighbors)
        self._probe_times = tuple(sorted(probe_times))

    def initial_state(self) -> Any:
        return 0

    def on_interrupt(self, state: Any, clock_time: Time, event: Event) -> Transition:
        if isinstance(event, StartEvent):
            timers = tuple(SetTimer(t) for t in self._probe_times)
            return Transition.to(state, timers=timers)
        if isinstance(event, TimerEvent):
            sends = tuple(
                Send(to=n, payload=Probe(origin=self._me, round=state))
                for n in self._neighbors
            )
            return Transition.to(state + 1, sends=sends)
        if isinstance(event, MessageReceiveEvent):
            payload = event.message.payload
            if isinstance(payload, Probe):
                reply = Echo(probe=payload, responder=self._me)
                return Transition.to(
                    state, sends=(Send(to=event.message.sender, payload=reply),)
                )
        return Transition.to(state)


class FloodAutomaton(Automaton):
    """Flood tokens: originators emit at start, everyone forwards once.

    State is the frozenset of token origins already seen, so repeated
    deliveries are absorbed and the protocol quiesces on any graph.
    """

    def __init__(
        self,
        me: ProcessorId,
        neighbors: Sequence[ProcessorId],
        originate: bool = False,
    ) -> None:
        self._me = me
        self._neighbors = tuple(neighbors)
        self._originate = originate

    def initial_state(self) -> FrozenSet[ProcessorId]:
        return frozenset()

    def on_interrupt(self, state: Any, clock_time: Time, event: Event) -> Transition:
        if isinstance(event, StartEvent) and self._originate:
            sends = tuple(
                Send(to=n, payload=("flood", self._me)) for n in self._neighbors
            )
            return Transition.to(state | {self._me}, sends=sends)
        if isinstance(event, MessageReceiveEvent):
            payload = event.message.payload
            if (
                isinstance(payload, tuple)
                and len(payload) == 2
                and payload[0] == "flood"
            ):
                origin = payload[1]
                if origin not in state:
                    sends = tuple(
                        Send(to=n, payload=payload)
                        for n in self._neighbors
                        if n != event.message.sender
                    )
                    return Transition.to(state | {origin}, sends=sends)
        return Transition.to(state)


# ----------------------------------------------------------------------
# Convenience builders
# ----------------------------------------------------------------------


def probe_schedule(count: int, first: Time, spacing: Time) -> Tuple[Time, ...]:
    """Clock times ``first, first + spacing, ...`` (``count`` of them).

    Choose ``first`` at least as large as the maximum start-time skew so
    no probe can arrive before its receiver has started.
    """
    if count < 1:
        raise ValueError("need at least one probe")
    if first <= 0 or spacing < 0:
        raise ValueError("need first > 0 and spacing >= 0")
    return tuple(first + i * spacing for i in range(count))


def probe_automata(
    topology: Topology, probe_times: Sequence[Time]
) -> Dict[ProcessorId, ProbeAutomaton]:
    """A :class:`ProbeAutomaton` per processor, probing all its neighbours."""
    return {
        p: ProbeAutomaton(
            me=p, neighbors=topology.neighbors(p), probe_times=probe_times
        )
        for p in topology.nodes
    }


def echo_automata(
    topology: Topology,
    prober_times: Dict[ProcessorId, Sequence[Time]],
) -> Dict[ProcessorId, EchoAutomaton]:
    """An :class:`EchoAutomaton` per processor; those listed in
    ``prober_times`` additionally probe their neighbours on that schedule."""
    return {
        p: EchoAutomaton(
            me=p,
            neighbors=topology.neighbors(p),
            probe_times=prober_times.get(p, ()),
        )
        for p in topology.nodes
    }


def flood_automata(
    topology: Topology, origins: Sequence[ProcessorId]
) -> Dict[ProcessorId, FloodAutomaton]:
    """A :class:`FloodAutomaton` per processor; ``origins`` emit tokens."""
    origin_set = set(origins)
    return {
        p: FloodAutomaton(
            me=p, neighbors=topology.neighbors(p), originate=p in origin_set
        )
        for p in topology.nodes
    }


__all__ = [
    "Probe",
    "Echo",
    "ProbeAutomaton",
    "EchoAutomaton",
    "FloodAutomaton",
    "probe_schedule",
    "probe_automata",
    "echo_automata",
    "flood_automata",
]
