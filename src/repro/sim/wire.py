"""The simulated delivery system: one wire per run, shared by both simulators.

The paper's model has one delivery system (Section 2): each message gets
a delay its link's assumption allows, and a processor takes a step only
at one of its own interrupts.  A :class:`Wire` is that system for one
simulated run.  Both simulators put every message on one:
:class:`~repro.sim.network.NetworkSimulator` (processor automata: every
experiment and campaign cell) and
:func:`~repro.sim.transport.run_transport_probes` (the reliable
transport, whose messages are framed segments).  The wire owns the
decisions the two must agree on:

* **delays** -- a table of delay streams keyed per directed edge, built
  once per run;
* **faults** -- the run's :class:`~repro.faults.injector.FaultInjector`
  decides every send (DESIGN.md section 10).  A drop still burns the
  delay draw, so the messages a plan leaves alone keep their fault-free
  delays; a corrupted delay is clamped at 0; a duplicate is scheduled as
  a second receive; a message due before its receiver starts is held
  until the start instant;
* **message uids** -- :meth:`Wire.message` numbers the run's messages
  from 0, so an execution does not depend on what ran before it;
* **fail-silent crashes** -- :meth:`Wire.suppressed` screens every
  interrupt (receive, timer, probe round): a processor inside a crash
  window takes no step, and each suppression writes one
  ``processor-crash`` log record and bumps one
  :attr:`RunSummary.crash_suppressed`.

Receives are scheduled as ``("recv", receiver, message)`` entries on the
run's scheduler; the caller owns the event loop that pops them.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Mapping, Optional, Tuple

from repro._types import ProcessorId, Time
from repro.delays.distributions import DelaySampler, Direction, run_copy
from repro.faults.injector import FaultInjector, FaultLog
from repro.model.events import Message
from repro.sim.scheduler import EventScheduler, PRIORITY_RECEIVE


class SimulationError(RuntimeError):
    """The simulation violated the model or the system's assumptions."""


@dataclass
class RunSummary:
    """What one simulated run did, in numbers.

    Available as :attr:`NetworkSimulator.last_run_summary` after
    :meth:`NetworkSimulator.run` and as ``TransportTrace.summary``, and
    surfaced by the CLI's ``demo`` and ``record`` commands; the same
    figures feed the ``sim.*`` metric series on instrumented runs.
    """

    #: Scheduler events popped (starts + receives + timers).
    events_processed: int = 0
    #: Messages handed to the delivery system.
    messages_sent: int = 0
    #: Messages whose receive event fired.
    messages_delivered: int = 0
    #: Messages lost in transit (injected loss or link-down, or a
    #: crashed receiver).
    messages_dropped: int = 0
    #: High-water mark of the future-event list.
    peak_queue_depth: int = 0
    #: Real time of the last event (``-inf`` for an empty run).
    end_time: Time = float("-inf")
    #: Duplicate deliveries injected by a fault plan.
    messages_duplicated: int = 0
    #: Interrupts suppressed by crash windows.
    crash_suppressed: int = 0
    #: Total faults injected by the run's fault plan (0 without one).
    faults_injected: int = 0
    #: The execution violated the delay assumptions because of injected
    #: timestamp corruption (downgraded from a hard error; see
    #: :class:`NetworkSimulator`).
    inadmissible: bool = False

    def lines(self) -> list:
        """Human-readable summary rows (label, value)."""
        rows = [
            ("events processed", self.events_processed),
            ("messages sent", self.messages_sent),
            ("messages delivered", self.messages_delivered),
            ("messages dropped", self.messages_dropped),
            ("peak queue depth", self.peak_queue_depth),
        ]
        if self.faults_injected:
            rows.append(("faults injected", self.faults_injected))
            rows.append(("messages duplicated", self.messages_duplicated))
            rows.append(("crash-suppressed events", self.crash_suppressed))
            if self.inadmissible:
                rows.append(("assumptions violated (injected)", 1))
        return rows


@dataclass
class DelayStream:
    """Where one directed edge's delays come from."""

    sampler: DelaySampler
    rng: random.Random
    direction: Direction


def shared_streams(
    samplers: Mapping[Tuple[ProcessorId, ProcessorId], DelaySampler],
    rng: random.Random,
) -> Dict[Tuple[ProcessorId, ProcessorId], DelayStream]:
    """Per directed edge: both directions of a link draw from one
    :func:`~repro.delays.distributions.run_copy` of its sampler and from
    the run's one ``rng``.  Stateless built-ins are shared as they are, a
    ``CorrelatedLoad`` gets a fresh copy (so its base is redrawn per run
    and shared by both directions), and any other sampler a deep copy."""
    streams: Dict[Tuple[ProcessorId, ProcessorId], DelayStream] = {}
    for (p, q), sampler in samplers.items():
        own = run_copy(sampler)
        streams[(p, q)] = DelayStream(own, rng, Direction.FORWARD)
        streams[(q, p)] = DelayStream(own, rng, Direction.REVERSE)
    return streams


class Wire:
    """One run's delivery system (see the module docstring).

    ``streams`` maps a stream key to its :class:`DelayStream`; callers
    pass the key with every :meth:`send` (``(sender, receiver)``, plus a
    frame class where one edge has several streams).
    """

    def __init__(
        self,
        streams: Mapping[Hashable, DelayStream],
        start_times: Mapping[ProcessorId, Time],
        scheduler: EventScheduler,
        injector: Optional[FaultInjector],
        recorder,
    ) -> None:
        self.streams = streams
        self.starts = start_times
        self.scheduler = scheduler
        self.injector = injector
        self.recorder = recorder
        self.summary = RunSummary()
        self._uids = itertools.count()

    def message(
        self, sender: ProcessorId, receiver: ProcessorId, payload: Any
    ) -> Message:
        """A new message, numbered from 0 within this run."""
        return Message(sender, receiver, payload, uid=next(self._uids))

    @property
    def fault_log(self) -> Optional[FaultLog]:
        return self.injector.log if self.injector is not None else None

    def send(
        self, message: Message, now: Time, key: Hashable
    ) -> Optional[Tuple[Time, bool]]:
        """Put ``message`` on the wire at real time ``now``.

        Returns ``(arrival, held)`` for the scheduled receive, or
        ``None`` when an injected fault lost the message (sent, never
        received -- the model's "in flight" state).
        """
        p, q = message.sender, message.receiver
        stream = self.streams.get(key)
        if stream is None:
            raise SimulationError(
                f"{p!r} sent a message to {q!r} but there is no such link"
            )
        summary = self.summary
        summary.messages_sent += 1
        injector = self.injector
        decision = (
            injector.on_dispatch(message, now) if injector is not None else None
        )
        if decision is not None and decision.drop:
            stream.sampler.sample(stream.rng, stream.direction)  # burn the draw
            injector.record(
                decision.cause, now, self.recorder,
                edge=(p, q), message_uid=message.uid,
            )
            summary.messages_dropped += 1
            return None
        delay = stream.sampler.sample(stream.rng, stream.direction)
        if delay < 0:
            raise SimulationError(
                f"sampler for link ({p!r}, {q!r}) produced negative delay "
                f"{delay}"
            )
        if decision is not None and decision.delay_delta:
            corrupted = max(0.0, delay + decision.delay_delta)
            injector.record(
                "timestamp-corruption", now, self.recorder,
                edge=(p, q), message_uid=message.uid,
                original_delay=delay, corrupted_delay=corrupted,
            )
            delay = corrupted
        arrival = now + delay
        start = self.starts[q]
        held = arrival < start
        if held:
            arrival = start
        self.scheduler.schedule(arrival, PRIORITY_RECEIVE, ("recv", q, message))
        if decision is not None and decision.duplicate_extra is not None:
            # At-least-once delivery: the same message is handed over
            # again later.  Receivers that keep records deduplicate by
            # uid (first delivery wins).
            self.scheduler.schedule(
                arrival + decision.duplicate_extra,
                PRIORITY_RECEIVE,
                ("recv", q, message),
            )
            summary.messages_duplicated += 1
            injector.record(
                "duplicate-delivery", now, self.recorder,
                edge=(p, q), message_uid=message.uid,
                extra_delay=decision.duplicate_extra,
            )
        return arrival, held

    def suppressed(
        self,
        p: ProcessorId,
        now: Time,
        interrupt: str,
        message_uid: Optional[int] = None,
        **detail: Any,
    ) -> bool:
        """Whether ``p`` is crashed at ``now``, so ``interrupt`` is lost.

        Fail-silent: the processor takes no step.  A suppressed receive
        is a dropped message (in flight forever); a suppressed timer or
        probe round is lost, not deferred.
        """
        injector = self.injector
        if injector is None or not injector.crashed(p, now):
            return False
        self.summary.crash_suppressed += 1
        if interrupt == "recv":
            self.summary.messages_dropped += 1
        injector.record(
            "processor-crash", now, self.recorder,
            processor=p, message_uid=message_uid,
            suppressed=interrupt, **detail,
        )
        return True

    def finish(self) -> RunSummary:
        """Fill the scheduler and fault totals into :attr:`summary`."""
        summary, scheduler = self.summary, self.scheduler
        summary.events_processed = scheduler.processed
        summary.peak_queue_depth = scheduler.peak_depth
        summary.end_time = scheduler.now
        if self.injector is not None:
            summary.faults_injected = len(self.injector.log)
        return summary


__all__ = [
    "DelayStream",
    "RunSummary",
    "SimulationError",
    "Wire",
    "shared_streams",
]
