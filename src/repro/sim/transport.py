"""Emergent message delays: the reliable transport over the simulator.

ROADMAP item 4.  :func:`run_transport_probes` drives one
:class:`~repro.transport.ReliableTransport` machine per processor over
the discrete-event scheduler: every application probe becomes a framed
data segment, and every segment's *frame* (one wire crossing) is one
message on the run's :class:`~repro.sim.wire.Wire` -- the same simulated
delivery system :class:`~repro.sim.network.NetworkSimulator` uses, so a
fault plan means the same thing to both: the
:class:`~repro.faults.injector.FaultInjector` may drop, perturb, or
duplicate any frame, and a processor inside a ``ProcessorCrash`` window
is fail-silent.  It takes no step at all -- frames to it are dropped,
and its probe rounds and retransmit timers are lost, each suppression
logged once as ``processor-crash`` -- so nothing leaves it until it
restarts; the next interrupt after the restart re-arms its
retransmission deadline, and segments still outstanding when the
scheduler drains count as ``pending`` in the ledger.  The delay the
synchronization pipeline then sees -- ``d(m)`` from application
hand-off to first accepted delivery -- is **emergent**: loss costs a
backed-off retransmission round trip, duplicate frames are suppressed,
an unresponsive peer costs a give-up.  That is exactly the heavy-tailed,
duplicate-prone traffic real networks produce, and the Section 6
formulas are exercised on it by experiment E17.

Determinism contract (the satellite property tests pin both halves):

* every stochastic choice draws from a stream keyed by a **stable
  string seed** -- ``f"{seed}:data:{src!r}->{dst!r}"`` for data-frame
  delays, ``:ack:`` for ack-frame delays, the machine's own stream for
  timer jitter, and the injector's ``(run_seed, plan.seed)`` stream for
  faults.  Same ``(seed, plan)`` |rarr| identical frames, retransmit
  schedules, emergent delays, and reports, independent of process or
  platform (no salted ``hash()`` anywhere);
* with **no loss**, an rto above the frame delay bound, and a window
  at least the number of outstanding probes, no retransmission ever
  fires and the k-th probe on a directed edge consumes exactly the k-th
  draw of that edge's data stream -- so the trace is message-for-message
  byte-identical to :func:`direct_probe_reports`, the transport-free
  reference path.  Ack frames cannot perturb this: they draw from the
  separate ``:ack:`` streams.

Unlike :class:`~repro.sim.network.NetworkSimulator` (one shared RNG per
run), streams here are per *directed edge* and per frame class.  The
price is that cross-direction sampler correlation (e.g.
``CorrelatedLoad``'s shared base load) does not survive -- each
direction owns its own :func:`~repro.delays.distributions.run_copy` of
the sampler.  The byte-equality and replay guarantees need exactly this
isolation, so it is the documented trade.

The trace's reports feed :class:`~repro.live.trace.ProbeLog` /
:func:`~repro.live.trace.views_from_probes` -- the same artifact the
live runtime produces -- so one downstream pipeline (synchronizer,
monitors, replay audit) covers both drivers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro._types import ProcessorId, Time
from repro.delays.distributions import DelaySampler, Direction, run_copy
from repro.delays.system import System
from repro.faults.injector import FaultInjector, FaultLog
from repro.faults.plan import FaultPlan
from repro.live.trace import ProbeLog
from repro.live.wire import Probe, Report
from repro.obs.recorder import get_recorder
from repro.sim.scheduler import EventScheduler, PRIORITY_START, PRIORITY_TIMER
from repro.sim.wire import DelayStream, RunSummary, SimulationError, Wire
from repro.transport import (
    ChannelStats,
    DataSegment,
    Deliver,
    Emit,
    PeerUnreachable,
    ReliableTransport,
    TransportConfig,
    link_ledger,
    recorder_observer,
)

#: Simulator-scale transport profile: delay bounds of a few time units.
SIM_TRANSPORT_CONFIG = TransportConfig(
    rto_initial=6.0,
    rto_max=48.0,
    backoff=2.0,
    jitter=0.1,
    window=64,
    max_retries=5,
)


class TransportSimulationError(SimulationError):
    """The transport run could not complete (runaway event loop)."""


@dataclass
class TransportTrace:
    """Everything one transport-probe run produced.

    ``reports`` are in arrival (ingestion) order -- the same contract as
    the live server's probe log -- and ``real_delays`` maps each
    ``(sender, receiver, seq)`` to the *emergent* real-time delay from
    application hand-off to first accepted delivery.
    """

    processors: Tuple[ProcessorId, ...]
    reports: Tuple[Report, ...]
    real_delays: Dict[Tuple[Any, Any, int], float]
    #: per directed edge that was handed probes, where they ended up
    #: (:func:`~repro.transport.link_ledger`).
    ledger: Dict[Tuple[Any, Any], Dict[str, int]]
    stats: Dict[ProcessorId, Dict[Any, ChannelStats]]
    unreachable: Tuple[Tuple[Any, Any], ...]
    fault_log: Optional[FaultLog]
    #: what the wire did: frames sent, delivered, dropped, duplicated,
    #: and interrupts suppressed by crash windows.
    summary: RunSummary = field(default_factory=RunSummary)

    @property
    def probe_log(self) -> ProbeLog:
        return ProbeLog(self.reports)

    def views(self):
        """Views for the batch pipeline (same path as live replay)."""
        return self.probe_log.views(processors=self.processors)

    def edge_summary(self, p: Any, q: Any) -> Dict[str, int]:
        """Fused sender- and receiver-side counters for directed ``p -> q``."""
        send = self.stats.get(p, {}).get(q, ChannelStats())
        recv = self.stats.get(q, {}).get(p, ChannelStats())
        return {
            "handed": self.ledger.get((p, q), {}).get("handed", 0),
            "segments_sent": send.segments_sent,
            "retransmits": send.retransmits,
            "timeouts": send.timeouts,
            "give_ups": send.give_ups,
            "undelivered": send.undelivered,
            "dropped_unreachable": send.dropped_unreachable,
            "delivered": recv.delivered,
            "duplicates": recv.duplicates,
        }

    def accounting(self) -> Dict[Tuple[Any, Any], Dict[str, int]]:
        """Per directed edge: where every handed probe ended up."""
        return {edge: dict(row) for edge, row in self.ledger.items()}

    @property
    def fully_accounted(self) -> bool:
        """Every handed probe was delivered, surfaced by a give-up,
        refused on a dead channel, or is still pending (outstanding when
        the run drained, e.g. behind a crash window) -- each exactly once.

        This is the acceptance invariant: reliable transport may fail
        to deliver (the network can be arbitrarily hostile), but it may
        never lose an observation *silently*.
        """
        return all(row["lost"] == 0 for row in self.accounting().values())

    def retransmits(self) -> int:
        return sum(
            s.retransmits for per in self.stats.values() for s in per.values()
        )

    def max_emergent_delay(self) -> float:
        return max(self.real_delays.values(), default=0.0)


def _delay_streams(
    system: System,
    samplers: Mapping[Tuple[ProcessorId, ProcessorId], DelaySampler],
    seed: Any,
    kind: str,
) -> Dict[Tuple[Any, Any], DelayStream]:
    """One independent (sampler copy, rng) per directed edge."""
    streams: Dict[Tuple[Any, Any], DelayStream] = {}
    for link, sampler in samplers.items():
        p, q = link
        for src, dst, direction in (
            (p, q, Direction.FORWARD),
            (q, p, Direction.REVERSE),
        ):
            streams[(src, dst)] = DelayStream(
                sampler=run_copy(sampler),
                rng=random.Random(f"{seed}:{kind}:{src!r}->{dst!r}"),
                direction=direction,
            )
    return streams


class _TransportRun:
    """One run's mutable state; :func:`run_transport_probes` is the API."""

    def __init__(
        self,
        system: System,
        samplers: Mapping[Tuple[ProcessorId, ProcessorId], DelaySampler],
        start_times: Mapping[ProcessorId, Time],
        probe_times: Sequence[Time],
        seed: Any,
        plan: Optional[FaultPlan],
        config: TransportConfig,
        max_events: int,
    ) -> None:
        missing = set(system.processors) - set(start_times)
        if missing:
            raise ValueError(f"missing start times: {sorted(missing, key=repr)}")
        self.system = system
        self.starts = dict(start_times)
        self.probe_times = tuple(probe_times)
        self.max_events = max_events
        self.recorder = get_recorder()
        observer = recorder_observer(self.recorder)
        self.machines: Dict[ProcessorId, ReliableTransport] = {
            p: ReliableTransport(p, config, seed=seed, observer=observer)
            for p in system.processors
        }
        # Data and ack frames draw from separate streams per directed edge.
        streams = {
            (src, dst, kind): stream
            for kind in ("data", "ack")
            for (src, dst), stream in _delay_streams(
                system, samplers, seed, kind
            ).items()
        }
        self.scheduler = EventScheduler()
        self.wire = Wire(
            streams,
            self.starts,
            self.scheduler,
            (
                FaultInjector(plan, system, run_seed=int(seed))
                if plan is not None
                else None
            ),
            self.recorder,
        )
        self.timers: Dict[ProcessorId, Any] = {}
        self.reports: List[Report] = []
        self.real_delays: Dict[Tuple[Any, Any, int], float] = {}
        self.handed: Dict[Tuple[Any, Any], int] = {}
        self.unreachable: List[Tuple[Any, Any]] = []

    # -- actions -----------------------------------------------------------

    def apply(self, node: ProcessorId, actions: Sequence[Any], now: Time) -> None:
        for action in actions:
            if isinstance(action, Emit):
                frame = action.frame
                kind = "data" if isinstance(frame, DataSegment) else "ack"
                self.wire.send(
                    self.wire.message(frame.src, frame.dst, frame),
                    now,
                    (frame.src, frame.dst, kind),
                )
            elif isinstance(action, Deliver):
                self.deliver(node, action, now)
            elif isinstance(action, PeerUnreachable):
                self.unreachable.append((node, action.peer))
                if self.recorder.enabled:
                    self.recorder.count("transport.peers_unreachable")
        self.rearm(node, now)

    def deliver(self, node: ProcessorId, action: Deliver, now: Time) -> None:
        probe = action.payload
        if not isinstance(probe, Probe):  # pragma: no cover - defensive
            raise TransportSimulationError(
                f"unexpected transport payload: {probe!r}"
            )
        report = Report(
            sender=probe.sender,
            receiver=node,
            seq=probe.seq,
            send_clock=probe.send_clock,
            recv_clock=now - self.starts[node],
        )
        self.reports.append(report)
        key = (probe.sender, node, probe.seq)
        handoff = self.starts[probe.sender] + probe.send_clock
        self.real_delays[key] = now - handoff
        if self.recorder.enabled:
            self.recorder.count("transport.observations")

    def rearm(self, node: ProcessorId, now: Time) -> None:
        """Keep exactly one scheduler timer per node, at next_timeout."""
        machine = self.machines[node]
        deadline = machine.next_timeout()
        entry = self.timers.get(node)
        if entry is not None:
            if (
                not entry.cancelled
                and not entry.popped
                and deadline is not None
                and abs(entry.real_time - deadline) <= 1e-12
            ):
                return
            self.scheduler.cancel(entry)
            self.timers[node] = None
        if deadline is not None:
            self.timers[node] = self.scheduler.schedule(
                max(deadline, now), PRIORITY_TIMER, ("timer", node)
            )

    # -- event loop --------------------------------------------------------

    def run(self) -> TransportTrace:
        wire, scheduler = self.wire, self.scheduler
        for p in self.system.processors:
            neighbors = tuple(self.system.topology.neighbors(p))
            for k, t in enumerate(self.probe_times):
                scheduler.schedule(
                    self.starts[p] + t,
                    PRIORITY_START,
                    ("probe", p, k, t, neighbors),
                )
        while True:
            entry = scheduler.pop()
            if entry is None:
                break
            if scheduler.processed > self.max_events:
                raise TransportSimulationError(
                    f"transport run exceeded {self.max_events} events; "
                    "runaway retransmission loop?"
                )
            # Fail-silent: a crashed node takes no step, so nothing it
            # would do (probe, ack, retransmit) reaches the wire; a
            # suppressed timer is lost and the node's next interrupt
            # re-arms its deadline.
            now = entry.real_time
            payload = entry.payload
            node = payload[1]
            if payload[0] == "probe":
                _, _, k, t, neighbors = payload
                if wire.suppressed(node, now, "probe", clock_time=t):
                    continue
                machine = self.machines[node]
                for q in neighbors:
                    self.handed[(node, q)] = self.handed.get((node, q), 0) + 1
                    actions = machine.send(
                        q, Probe(sender=node, seq=k, send_clock=t), now
                    )
                    self.apply(node, actions, now)
            elif payload[0] == "recv":
                message = payload[2]
                if wire.suppressed(
                    node, now, "recv", message_uid=message.uid
                ):
                    continue
                wire.summary.messages_delivered += 1
                self.apply(
                    node, self.machines[node].on_frame(message.payload, now), now
                )
            else:  # "timer"
                if wire.suppressed(
                    node, now, "timer", clock_time=now - self.starts[node]
                ):
                    continue
                self.apply(node, self.machines[node].on_timer(now), now)
        return TransportTrace(
            processors=tuple(self.system.processors),
            reports=tuple(self.reports),
            real_delays=dict(self.real_delays),
            ledger={
                (p, q): link_ledger(self.machines[p], q, self.machines[q])
                for p, q in sorted(self.handed, key=repr)
            },
            stats={
                p: machine.stats_by_peer()
                for p, machine in self.machines.items()
            },
            unreachable=tuple(self.unreachable),
            fault_log=wire.fault_log,
            summary=wire.finish(),
        )


def run_transport_probes(
    system: System,
    samplers: Mapping[Tuple[ProcessorId, ProcessorId], DelaySampler],
    start_times: Mapping[ProcessorId, Time],
    *,
    probe_times: Sequence[Time],
    seed: int = 0,
    plan: Optional[FaultPlan] = None,
    config: Optional[TransportConfig] = None,
    max_events: int = 500_000,
) -> TransportTrace:
    """Run the reliable transport over the simulated network.

    At each clock time in ``probe_times`` every processor hands one
    probe per neighbour to its transport (sequence number = round
    index); the run ends when every segment is delivered, given up on,
    or dropped -- the scheduler drains, there is no separate horizon.
    ``samplers`` are per canonical link, like
    :class:`~repro.sim.network.NetworkSimulator` (one
    :func:`~repro.delays.distributions.run_copy` per directed edge here;
    see the module docstring for the RNG contract).
    """
    return _TransportRun(
        system, samplers, start_times, probe_times, seed, plan,
        config or SIM_TRANSPORT_CONFIG, max_events,
    ).run()


def direct_probe_reports(
    system: System,
    samplers: Mapping[Tuple[ProcessorId, ProcessorId], DelaySampler],
    start_times: Mapping[ProcessorId, Time],
    *,
    probe_times: Sequence[Time],
    seed: int = 0,
) -> Dict[Tuple[Any, Any, int], Report]:
    """The transport-free reference path: sample each delay directly.

    Draws from the *same* per-directed-edge ``data`` streams as
    :func:`run_transport_probes` with identical float arithmetic, so a
    zero-loss transport run (rto above the frame bound, window >=
    outstanding probes) reproduces these reports byte-for-byte -- the
    framing layer provably adds nothing when the network is clean.
    """
    streams = _delay_streams(system, samplers, seed, "data")
    out: Dict[Tuple[Any, Any, int], Report] = {}
    for p in system.processors:
        for q in system.topology.neighbors(p):
            stream = streams[(p, q)]
            for k, t in enumerate(probe_times):
                delay = stream.sampler.sample(stream.rng, stream.direction)
                send_real = start_times[p] + t
                arrival = max(send_real + delay, start_times[q])
                out[(p, q, k)] = Report(
                    sender=p,
                    receiver=q,
                    seq=k,
                    send_clock=t,
                    recv_clock=arrival - start_times[q],
                )
    return out


__all__ = [
    "SIM_TRANSPORT_CONFIG",
    "TransportSimulationError",
    "TransportTrace",
    "direct_probe_reports",
    "run_transport_probes",
]
