"""Leader-based distributed synchronization (paper, Section 7 discussion).

The paper computes corrections centrally from all views and leaves the
distributed implementation as an open question, sketching the obvious
approach: neighbours estimate delays locally, everyone ships summaries to
a leader, the leader runs GLOBAL ESTIMATES + SHIFTS and sends each
processor its correction.  This module implements that sketch as honest
automata running *inside* the simulator -- every report and assignment is
a real message subject to the system's delay assumptions.

Key design points, mirroring the paper:

* Probes carry their send clock time, so the *receiver alone* computes
  the estimated delay ``d~(m) = recv_clock - payload.send_clock``
  (Lemma 6.1 made concrete).
* Reports carry only ``(count, d~min, d~max)`` per inbound edge --
  sufficient statistics by Lemmas 6.2/6.5, so the protocol's messages
  stay O(degree) regardless of how many probes were exchanged.
* Routing follows a BFS tree of the topology rooted at the leader
  (common knowledge, like the topology itself).

The paper's caveat applies and is measurable here: the leader's
corrections are optimal w.r.t. the *probe phase* only; the report and
assignment messages themselves carry extra timing information that a
centralized observer of the full execution could additionally exploit.
Experiment E10 quantifies that gap.

The paper's delivery system never loses a message, and by default
neither does this protocol's: one lost report or assignment deadlocks
it.  With a :class:`~repro.transport.TransportConfig`, reports and
assignments ride the shared reliable transport
(:class:`~repro.transport.ReliableTransport`) hop by hop along the
routing tree: its frames are ordinary simulator messages, retransmit
deadlines are ordinary timers, and a give-up leaves the affected
processors unassigned, which :func:`corrections_from_execution` reports
as :class:`ProtocolIncomplete`.  Probes stay raw sends: a retransmitted
probe's delay would be emergent and could break the ``[lb, ub]``
assumptions the leader's ``mls~`` relies on.  The machine lives in the
immutable per-step :class:`NodeState` and is copied before every
transition that touches it, so automata can be reused across runs.
"""

from __future__ import annotations

import copy
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro._types import Edge, ProcessorId, Time
from repro.core.synchronizer import ClockSynchronizer, SyncResult
from repro.delays.base import DirectionStats
from repro.delays.system import System
from repro.graphs.topology import Topology
from repro.model.events import Event, MessageReceiveEvent, StartEvent, TimerEvent
from repro.model.execution import Execution
from repro.sim.processor import Automaton, Send, SetTimer, Transition
from repro.transport import (
    AckSegment,
    DataSegment,
    Deliver,
    Emit,
    ReliableTransport,
    TransportConfig,
)


# ----------------------------------------------------------------------
# Wire payloads
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TimestampedProbe:
    """A probe carrying its own send clock time."""

    origin: ProcessorId
    round: int
    send_clock: Time


@dataclass(frozen=True)
class EdgeStats:
    """Sufficient statistics for one inbound directed edge."""

    sender: ProcessorId
    count: int
    min_delay: Time
    max_delay: Time


@dataclass(frozen=True)
class Report:
    """One processor's inbound-edge statistics, en route to the leader."""

    origin: ProcessorId
    entries: Tuple[EdgeStats, ...]


@dataclass(frozen=True)
class Assign:
    """The leader's correction for ``target``, en route down the tree."""

    target: ProcessorId
    correction: Time


def report_stats(reports: Sequence[Report]) -> Dict[Edge, DirectionStats]:
    """The per-edge statistics ``reports`` carry, keyed by directed edge
    ``sender -> origin`` (a later report of an edge wins)."""
    return {
        (entry.sender, report.origin): DirectionStats(
            count=entry.count,
            min_delay=entry.min_delay,
            max_delay=entry.max_delay,
        )
        for report in reports
        for entry in report.entries
    }


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------


def tree_routing(
    topology: Topology, leader: ProcessorId
) -> Dict[ProcessorId, Dict[ProcessorId, ProcessorId]]:
    """``next_hop[p][target]``: the neighbour ``p`` forwards to, along the
    BFS tree rooted at ``leader``."""
    parent: Dict[ProcessorId, Optional[ProcessorId]] = {leader: None}
    order: List[ProcessorId] = [leader]
    frontier = [leader]
    while frontier:
        nxt: List[ProcessorId] = []
        for u in frontier:
            for v in topology.neighbors(u):
                if v not in parent:
                    parent[v] = u
                    order.append(v)
                    nxt.append(v)
        frontier = nxt
    if len(parent) != len(topology.nodes):
        raise ValueError("topology is not connected; no routing tree exists")

    def path_to_leader(p: ProcessorId) -> List[ProcessorId]:
        path = [p]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        return path

    next_hop: Dict[ProcessorId, Dict[ProcessorId, ProcessorId]] = {
        p: {} for p in topology.nodes
    }
    for target in topology.nodes:
        path = path_to_leader(target)  # target ... leader
        # Walking the path from the leader end gives each node on it the
        # next hop toward the target.
        for i in range(len(path) - 1, 0, -1):
            next_hop[path[i]][target] = path[i - 1]
    # Off-path nodes route via their parent (up the tree until on-path).
    for p in topology.nodes:
        for target in topology.nodes:
            if target != p and target not in next_hop[p]:
                next_hop[p][target] = parent[p]
    return next_hop


# ----------------------------------------------------------------------
# Automaton state
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class NodeState:
    """Immutable per-processor protocol state (histories compare states)."""

    probes_sent: int = 0
    observations: Tuple[Tuple[ProcessorId, Time], ...] = ()
    reported: bool = False
    reports: Tuple[Report, ...] = ()
    correction: Optional[Time] = None
    assigned: bool = False
    #: reliable-transport endpoint (``None`` on the lossless protocol);
    #: never mutated in place -- transitions copy it first.
    transport: Optional[ReliableTransport] = field(default=None, repr=False)


#: Payloads routed toward a target: ``(target, payload)`` pairs.
Routed = Sequence[Tuple[ProcessorId, Any]]


class LeaderSyncAutomaton(Automaton):
    """One participant of the leader-based synchronization protocol.

    Every processor probes its neighbours at ``probe_times`` and reports
    inbound statistics toward the leader at ``report_time``; the leader
    additionally runs the optimal pipeline once all reports arrive and
    distributes corrections.  With a ``transport`` config, reports and
    assignments ride a :class:`~repro.transport.ReliableTransport` per
    processor (see the module docstring).
    """

    def __init__(
        self,
        me: ProcessorId,
        system: System,
        leader: ProcessorId,
        probe_times: Sequence[Time],
        report_time: Time,
        next_hop: Mapping[ProcessorId, ProcessorId],
        transport: Optional[TransportConfig] = None,
    ) -> None:
        if report_time <= max(probe_times):
            raise ValueError("report_time must come after the last probe")
        self._me = me
        self._system = system
        self._leader = leader
        self._neighbors = tuple(system.topology.neighbors(me))
        self._probe_times = tuple(sorted(probe_times))
        self._report_time = report_time
        self._next_hop = dict(next_hop)
        self._n = len(system.topology.nodes)
        self._transport = transport

    # -- helpers -------------------------------------------------------

    def _make_report(self, state: NodeState) -> Report:
        by_sender: Dict[ProcessorId, List[Time]] = {}
        for sender, delay in state.observations:
            by_sender.setdefault(sender, []).append(delay)
        entries = tuple(
            EdgeStats(
                sender=sender,
                count=len(delays),
                min_delay=min(delays),
                max_delay=max(delays),
            )
            for sender, delays in sorted(by_sender.items(), key=lambda kv: repr(kv[0]))
        )
        return Report(origin=self._me, entries=entries)

    def _leader_compute(self, reports: Sequence[Report]) -> SyncResult:
        mls_tilde = self._system.mls_from_stats(report_stats(reports))
        synchronizer = ClockSynchronizer(self._system, root=self._leader)
        return synchronizer.from_local_estimates(mls_tilde)

    # -- Automaton interface -------------------------------------------

    def initial_state(self) -> NodeState:
        if self._transport is None:
            return NodeState()
        return NodeState(transport=ReliableTransport(self._me, self._transport))

    def on_interrupt(
        self, state: NodeState, clock_time: Time, event: Event
    ) -> Transition:
        if isinstance(event, StartEvent):
            timers = tuple(SetTimer(t) for t in self._probe_times)
            timers += (SetTimer(self._report_time),)
            return Transition.to(state, timers=timers)

        if isinstance(event, TimerEvent):
            # A timer event carries the exact clock time its SetTimer
            # named (``clock_time`` is real - start and need not round-
            # trip), so protocol timers are told from retransmit timers
            # by whether protocol work is due at that named time.
            due = event.clock_time
            if (
                state.probes_sent < len(self._probe_times)
                and due >= self._probe_times[state.probes_sent]
            ):
                sends = tuple(
                    Send(
                        to=n,
                        payload=TimestampedProbe(
                            origin=self._me,
                            round=state.probes_sent,
                            send_clock=clock_time,
                        ),
                    )
                    for n in self._neighbors
                )
                return Transition.to(
                    replace(state, probes_sent=state.probes_sent + 1),
                    sends=sends,
                )
            now = max(clock_time, due)
            if not state.reported and due >= self._report_time:
                report = self._make_report(state)
                state = replace(state, reported=True)
                if self._me == self._leader:
                    return self._ship(now, *self._absorb_report(state, report))
                return self._ship(now, state, ((self._leader, report),))
            # A retransmission deadline of the reliable transport.
            return self._ship(now, state, feed=lambda m: m.on_timer(now))

        if isinstance(event, MessageReceiveEvent):
            payload = event.message.payload
            if isinstance(payload, TimestampedProbe):
                delay_estimate = clock_time - payload.send_clock
                obs = state.observations + ((payload.origin, delay_estimate),)
                return Transition.to(replace(state, observations=obs))
            if isinstance(payload, (DataSegment, AckSegment)):
                return self._ship(
                    clock_time, state,
                    feed=lambda m: m.on_frame(payload, clock_time),
                )
            return self._ship(clock_time, *self._on_payload(state, payload))
        return Transition.to(state)

    def _on_payload(
        self, state: NodeState, payload: Any
    ) -> Tuple[NodeState, Routed]:
        """Handle one delivered Report/Assign: absorb it or pass it on."""
        if isinstance(payload, Report):
            if self._me == self._leader:
                return self._absorb_report(state, payload)
            return state, ((self._leader, payload),)
        if isinstance(payload, Assign):
            if payload.target == self._me:
                return (
                    replace(state, correction=payload.correction, assigned=True),
                    (),
                )
            return state, ((payload.target, payload),)
        return state, ()

    def _absorb_report(
        self, state: NodeState, report: Report
    ) -> Tuple[NodeState, Routed]:
        reports = state.reports + (report,)
        new_state = replace(state, reports=reports)
        if len(reports) < self._n:
            return new_state, ()
        result = self._leader_compute(reports)
        assigns = tuple(
            (target, Assign(target=target, correction=x))
            for target, x in sorted(result.corrections.items(), key=lambda kv: repr(kv[0]))
            if target != self._me
        )
        return (
            replace(
                new_state,
                correction=result.corrections[self._me],
                assigned=True,
            ),
            assigns,
        )

    def _ship(
        self, now: Time, state: NodeState, routed: Routed = (), feed=None
    ) -> Transition:
        """Send ``routed`` payloads one hop along the tree toward their
        targets, plainly or through a copy of the state's transport.

        ``feed`` applies a frame or timer input to the copied machine
        first; payloads it delivers re-enter :meth:`_on_payload`, and
        whatever those route onward rides the same machine.
        """
        if state.transport is None:
            sends = tuple(
                Send(to=self._next_hop[target], payload=payload)
                for target, payload in routed
            )
            return Transition.to(state, sends=sends)
        machine = copy.deepcopy(state.transport)
        actions = deque(feed(machine) if feed is not None else ())
        for target, payload in routed:
            actions.extend(machine.send(self._next_hop[target], payload, now))
        sends: List[Send] = []
        while actions:
            action = actions.popleft()
            if isinstance(action, Emit):
                sends.append(Send(to=action.frame.dst, payload=action.frame))
            elif isinstance(action, Deliver):
                state, onward = self._on_payload(state, action.payload)
                for target, payload in onward:
                    actions.extend(
                        machine.send(self._next_hop[target], payload, now)
                    )
            # PeerUnreachable: its payloads never arrive, so their
            # targets stay unassigned (ProtocolIncomplete downstream).
        deadline = machine.next_timeout()
        # A deadline at or before ``now`` is already armed and pending.
        timers = (
            (SetTimer(deadline),)
            if deadline is not None and deadline > now + 1e-12
            else ()
        )
        return Transition.to(
            replace(state, transport=machine), sends=tuple(sends), timers=timers
        )


# ----------------------------------------------------------------------
# Harness helpers
# ----------------------------------------------------------------------


def leader_automata(
    system: System,
    leader: ProcessorId,
    probe_times: Sequence[Time],
    report_time: Time,
    transport: Optional[TransportConfig] = None,
) -> Dict[ProcessorId, LeaderSyncAutomaton]:
    """Build the full set of protocol automata for ``system``.

    ``transport=None`` is the paper's lossless protocol; a config makes
    reports and assignments ride the reliable transport, which survives
    message loss (see the module docstring).
    """
    routing = tree_routing(system.topology, leader)
    return {
        p: LeaderSyncAutomaton(
            me=p,
            system=system,
            leader=leader,
            probe_times=probe_times,
            report_time=report_time,
            next_hop=routing[p],
            transport=transport,
        )
        for p in system.topology.nodes
    }


class ProtocolIncomplete(RuntimeError):
    """The run ended before every processor received its correction."""


def corrections_from_execution(alpha: Execution) -> Dict[ProcessorId, Time]:
    """Extract each processor's assigned correction from its final state."""
    corrections: Dict[ProcessorId, Time] = {}
    unassigned: List[ProcessorId] = []
    for p in alpha.processors:
        final = alpha.history(p).steps[-1].step.new_state
        if not isinstance(final, NodeState) or not final.assigned:
            unassigned.append(p)
        else:
            corrections[p] = final.correction
    if unassigned:
        raise ProtocolIncomplete(
            f"no correction assigned to: {sorted(unassigned, key=repr)}"
        )
    return corrections


__all__ = [
    "TimestampedProbe",
    "EdgeStats",
    "Report",
    "Assign",
    "report_stats",
    "NodeState",
    "LeaderSyncAutomaton",
    "tree_routing",
    "leader_automata",
    "ProtocolIncomplete",
    "corrections_from_execution",
]
