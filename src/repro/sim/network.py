"""The network simulator: admissible executions of a system ``(G, A)``.

The simulator plays the role of the paper's message delivery system plus
outside observer.  It drives one :class:`~repro.sim.processor.Automaton`
per processor, samples a delay for every message from the link's
:class:`~repro.delays.distributions.DelaySampler`, and records the
resulting real-timed steps into an :class:`~repro.model.execution.Execution`.

Guarantees:

* processors only ever see clock times (their automata receive no real
  time), so simulated algorithms cannot violate Claim 3.1;
* runs are deterministic given the seed, the start times and the automata;
* after the run, the execution is validated against the formal model and
  -- unless disabled -- against the system's delay assumptions, so a
  sampler/assumption mismatch fails loudly instead of silently producing
  an inadmissible execution.

Messages that would arrive before their receiver's start event are held by
the delivery system and handed over at the start instant (the model cannot
represent pre-start receives; the system is allowed to reorder and delay).
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple

from repro._types import ProcessorId, Time
from repro.delays.distributions import DelaySampler, Direction
from repro.delays.system import System
from repro.model.events import (
    Message,
    MessageReceiveEvent,
    MessageSendEvent,
    StartEvent,
    TimerEvent,
    TimerSetEvent,
)
from repro.faults.injector import FaultInjector, FaultLog
from repro.faults.plan import FaultPlan
from repro.model.execution import Execution
from repro.model.steps import History, Step, TimedStep
from repro.obs.recorder import get_recorder
from repro.sim.processor import Automaton, Transition
from repro.sim.scheduler import (
    EventScheduler,
    PRIORITY_RECEIVE,
    PRIORITY_START,
    PRIORITY_TIMER,
)


class SimulationError(RuntimeError):
    """The simulation violated the model or the system's assumptions."""


@dataclass
class SimulationConfig:
    """Tunables for one simulation run."""

    #: Hard cap on processed events; exceeded = runaway protocol.
    max_events: int = 1_000_000
    #: Validate histories and delay-assumption admissibility after the run.
    validate: bool = True


@dataclass
class RunSummary:
    """What one simulation run did, in numbers.

    Available as :attr:`NetworkSimulator.last_run_summary` after
    :meth:`NetworkSimulator.run` and surfaced by the CLI's ``demo`` and
    ``record`` commands; the same figures feed the ``sim.*`` metric
    series on instrumented runs.
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
    #: Receive/timer interrupts suppressed by crash windows.
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


class NetworkSimulator:
    """Executes automata over a system with sampled message delays.

    Parameters
    ----------
    system:
        The ``(G, A)`` pair; delays are checked against ``A`` post-run.
    samplers:
        One delay sampler per canonical link of the topology.  Samplers
        are deep-copied per run, so stateful samplers (e.g.
        :class:`~repro.delays.distributions.CorrelatedLoad`) never leak
        state across runs.
    start_times:
        Real start time ``S_p`` per processor.
    seed:
        Seed for the run's private RNG (delay draws).
    faults:
        Optional :class:`~repro.faults.plan.FaultPlan` executed by a
        per-run :class:`~repro.faults.injector.FaultInjector`; it is the
        simulator's only loss model.  The paper's delivery system "does
        not lose messages"; losing them anyway is how the test-suite
        probes graceful degradation (fewer observations, never wrong
        answers).  A lost message appears in the sender's history as
        sent but is never delivered -- exactly the model's "in flight"
        state -- so loss, link-down and crash faults keep the execution
        well formed (more "in flight" messages, fewer steps).  Duplicate
        delivery marks the execution's extra receives (first delivery
        wins in the records); timestamp corruption may make the
        execution violate the delay assumptions -- since that violation
        is known-injected, the post-run admissibility check downgrades
        from a hard :class:`SimulationError` to a
        ``sim.faults.inadmissible`` telemetry event plus
        :attr:`RunSummary.inadmissible`, and the theorem monitors are
        expected to flag the corrupted estimates.
    """

    def __init__(
        self,
        system: System,
        samplers: Mapping[Tuple[ProcessorId, ProcessorId], DelaySampler],
        start_times: Mapping[ProcessorId, Time],
        seed: int = 0,
        config: Optional[SimulationConfig] = None,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self._system = system
        self._start_times = dict(start_times)
        self._seed = seed
        self._config = config or SimulationConfig()
        self._last_summary: Optional[RunSummary] = None
        self._faults = faults if faults else None
        if self._faults is not None:
            # Fail at construction, not mid-run: plans naming unknown
            # links/processors are configuration errors.
            self._faults.validate_for(system)
        self._last_fault_log: Optional[FaultLog] = None

        links = set(system.topology.links)
        resolved: Dict[Tuple[ProcessorId, ProcessorId], DelaySampler] = {}
        for link, sampler in samplers.items():
            p, q = link
            if (p, q) in links:
                resolved[(p, q)] = sampler
            elif (q, p) in links:
                raise SimulationError(
                    f"sampler for {link!r} keyed against non-canonical "
                    f"orientation; use {(q, p)!r}"
                )
            else:
                raise SimulationError(f"sampler given for non-link {link!r}")
        missing = links - set(resolved)
        if missing:
            raise SimulationError(
                f"links without samplers: {sorted(missing, key=repr)}"
            )
        self._samplers = resolved

        missing_starts = set(system.processors) - set(self._start_times)
        if missing_starts:
            raise SimulationError(
                f"processors without start times: "
                f"{sorted(missing_starts, key=repr)}"
            )

    # ------------------------------------------------------------------

    @property
    def last_run_summary(self) -> Optional[RunSummary]:
        """Counters of the most recent :meth:`run` (``None`` before one)."""
        return self._last_summary

    @property
    def last_fault_log(self) -> Optional[FaultLog]:
        """Faults injected by the most recent :meth:`run` (``None`` when
        the simulator has no fault plan or has not run yet)."""
        return self._last_fault_log

    def run(self, automata: Mapping[ProcessorId, Automaton]) -> Execution:
        """Run to quiescence and return the recorded execution."""
        missing = set(self._system.processors) - set(automata)
        if missing:
            raise SimulationError(
                f"processors without automata: {sorted(missing, key=repr)}"
            )

        recorder = get_recorder()
        with recorder.span(
            "sim.run",
            processors=len(self._system.processors),
            seed=self._seed,
        ):
            execution = self._run(automata, recorder)
        return execution

    def _run(
        self, automata: Mapping[ProcessorId, Automaton], recorder
    ) -> Execution:
        rng = random.Random(self._seed)
        samplers = {
            link: copy.deepcopy(sampler)
            for link, sampler in self._samplers.items()
        }
        injector = (
            FaultInjector(self._faults, self._system, run_seed=self._seed)
            if self._faults is not None
            else None
        )
        # Keep the recorder's simulated clock current while events fire,
        # so spans opened during the run carry sim_time attributes.
        scheduler = EventScheduler(
            clock_listener=recorder.set_sim_time if recorder.enabled else None
        )

        states: Dict[ProcessorId, Any] = {
            p: automata[p].initial_state() for p in self._system.processors
        }
        steps: Dict[ProcessorId, List[TimedStep]] = {
            p: [] for p in self._system.processors
        }
        pending_timers: Dict[ProcessorId, Set[float]] = {
            p: set() for p in self._system.processors
        }

        for p, s_p in self._start_times.items():
            scheduler.schedule(s_p, PRIORITY_START, ("start", p))

        summary = RunSummary()
        # Sampled only on instrumented runs; the disabled path pays one
        # `enabled` check before the loop, nothing per event.
        depth_histogram = (
            recorder.histogram(
                "sim.scheduler.queue_depth",
                boundaries=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024),
                description="future-event-list depth sampled at each pop",
            )
            if recorder.enabled
            else None
        )
        delay_histogram = (
            recorder.histogram(
                "sim.message.delay",
                description="real delay d(m) of each dispatched message",
            )
            if recorder.enabled
            else None
        )
        # Flow records are built only when someone is listening (e.g. a
        # FlowLog observer); the disabled path pays one check per run.
        emit_flow = recorder.enabled and bool(recorder.observers)

        try:
            self._event_loop(
                automata,
                scheduler,
                samplers,
                rng,
                states,
                steps,
                pending_timers,
                summary,
                recorder,
                depth_histogram,
                delay_histogram,
                emit_flow,
                injector,
            )
        finally:
            recorder.set_sim_time(None)

        summary.events_processed = scheduler.processed
        summary.peak_queue_depth = scheduler.peak_depth
        summary.end_time = scheduler.now
        if injector is not None:
            summary.faults_injected = len(injector.log)
            self._last_fault_log = injector.log
        else:
            self._last_fault_log = None
        self._last_summary = summary
        recorder.count("sim.events_processed", scheduler.processed)
        recorder.count("sim.messages.sent", summary.messages_sent)
        recorder.count("sim.messages.delivered", summary.messages_delivered)
        recorder.count("sim.messages.dropped", summary.messages_dropped)
        recorder.count("sim.runs")
        recorder.set_gauge(
            "sim.scheduler.peak_queue_depth", scheduler.peak_depth
        )

        histories = {
            p: History(processor=p, steps=tuple(step_list))
            for p, step_list in steps.items()
        }
        execution = Execution(histories)

        if self._config.validate:
            with recorder.span("sim.validate"):
                execution.validate(
                    allow_duplicates=summary.messages_duplicated > 0
                )
                if not self._system.is_admissible(execution):
                    corrupted = injector is not None and injector.log.count(
                        "timestamp-corruption"
                    )
                    if corrupted:
                        # The violation is known-injected: degrade to a
                        # recorded deviation instead of failing the run,
                        # so monitors downstream get to flag the
                        # corrupted estimates (that is the point of the
                        # corruption fault class).
                        summary.inadmissible = True
                        injector.record(
                            "inadmissible-execution",
                            scheduler.now,
                            recorder,
                            corruptions=corrupted,
                        )
                        if recorder.enabled and recorder.observers:
                            recorder.emit(
                                "sim.faults.inadmissible",
                                corruptions=corrupted,
                                sim_time=recorder.sim_time,
                            )
                    else:
                        raise SimulationError(
                            "simulated delays violate the system's delay "
                            "assumptions; check that each link's sampler "
                            "matches its assumption"
                        )
        if injector is not None:
            # Validation may have logged one more deviation entry.
            summary.faults_injected = len(injector.log)
        return execution

    def _event_loop(
        self,
        automata: Mapping[ProcessorId, Automaton],
        scheduler: EventScheduler,
        samplers: Mapping[Tuple[ProcessorId, ProcessorId], DelaySampler],
        rng: random.Random,
        states: Dict[ProcessorId, Any],
        steps: Dict[ProcessorId, List[TimedStep]],
        pending_timers: Dict[ProcessorId, Set[float]],
        summary: RunSummary,
        recorder,
        depth_histogram,
        delay_histogram,
        emit_flow: bool,
        injector=None,
    ) -> None:
        while True:
            entry = scheduler.pop()
            if entry is None:
                break
            if scheduler.processed > self._config.max_events:
                raise SimulationError(
                    f"event budget of {self._config.max_events} exceeded; "
                    f"protocol does not quiesce"
                )
            if depth_histogram is not None:
                depth_histogram.observe(scheduler.raw_depth)
            kind = entry.payload[0]
            if kind == "start":
                _, p = entry.payload
                # Start events always fire: the model requires every
                # history to begin with a start, and a crash window
                # covering it silences the processor from its first
                # interrupt onwards instead.
                event = StartEvent()
            elif kind == "recv":
                _, p, message = entry.payload
                if injector is not None and injector.crashed(
                    p, entry.real_time
                ):
                    # Fail-silent: the message is dropped at a crashed
                    # receiver (in flight forever, like injected loss).
                    summary.crash_suppressed += 1
                    summary.messages_dropped += 1
                    injector.record(
                        "processor-crash",
                        entry.real_time,
                        recorder,
                        processor=p,
                        message_uid=message.uid,
                        suppressed="recv",
                    )
                    continue
                summary.messages_delivered += 1
                event = MessageReceiveEvent(message=message)
            elif kind == "timer":
                _, p, clock_t = entry.payload
                pending_timers[p].discard(round(clock_t, 9))
                if injector is not None and injector.crashed(
                    p, entry.real_time
                ):
                    # Timers due inside a crash window are lost, not
                    # deferred (condition 6 only requires fired timers
                    # to have been set, so the history stays valid).
                    summary.crash_suppressed += 1
                    injector.record(
                        "processor-crash",
                        entry.real_time,
                        recorder,
                        processor=p,
                        suppressed="timer",
                        clock_time=clock_t,
                    )
                    continue
                event = TimerEvent(clock_time=clock_t)
            else:  # pragma: no cover - internal invariant
                raise SimulationError(f"unknown payload {entry.payload!r}")

            now = entry.real_time
            clock = now - self._start_times[p]
            old_state = states[p]
            transition = automata[p].on_interrupt(old_state, clock, event)
            if not isinstance(transition, Transition):
                raise SimulationError(
                    f"automaton of {p!r} returned {transition!r}, "
                    f"expected a Transition"
                )

            send_events = []
            for send in transition.sends:
                message = Message(sender=p, receiver=send.to, payload=send.payload)
                send_events.append(MessageSendEvent(message=message))
                summary.messages_sent += 1
                if not self._dispatch(
                    scheduler,
                    samplers,
                    rng,
                    message,
                    now,
                    recorder,
                    delay_histogram,
                    emit_flow,
                    injector,
                    summary,
                ):
                    summary.messages_dropped += 1

            timer_events = []
            for timer in transition.timers:
                if timer.clock_time <= clock + 1e-12:
                    raise SimulationError(
                        f"{p!r} set a timer for clock {timer.clock_time} at "
                        f"clock {clock}; timers must be strictly in the future"
                    )
                timer_events.append(TimerSetEvent(clock_time=timer.clock_time))
                key = round(timer.clock_time, 9)
                if key not in pending_timers[p]:
                    pending_timers[p].add(key)
                    scheduler.schedule(
                        self._start_times[p] + timer.clock_time,
                        PRIORITY_TIMER,
                        ("timer", p, timer.clock_time),
                    )

            states[p] = transition.new_state
            steps[p].append(
                TimedStep(
                    real_time=now,
                    step=Step(
                        old_state=old_state,
                        clock_time=clock,
                        interrupt=event,
                        new_state=transition.new_state,
                        sends=tuple(send_events),
                        timer_sets=tuple(timer_events),
                    ),
                )
            )

    # ------------------------------------------------------------------

    def _dispatch(
        self,
        scheduler: EventScheduler,
        samplers: Mapping[Tuple[ProcessorId, ProcessorId], DelaySampler],
        rng: random.Random,
        message: Message,
        send_time: Time,
        recorder=None,
        delay_histogram=None,
        emit_flow: bool = False,
        injector=None,
        summary: Optional[RunSummary] = None,
    ) -> bool:
        """Sample a delay for ``message`` and schedule its receive event.

        Returns ``False`` when the message was lost in transit (an
        injected loss/link-down fault), ``True`` when a receive event was
        scheduled.  An injected drop still *burns* the
        delay draw the benign run would have made, so a fault plan never
        perturbs the delays of the messages it leaves alone (surviving
        traffic is byte-identical to the fault-free run, message for
        message).  With ``emit_flow`` the full lifecycle
        is emitted as a ``message.flow`` telemetry event (a
        :class:`~repro.obs.flow.FlowRecord`): the delivery system knows a
        message's fate the moment it is sent -- the delay is sampled here
        and receives are never cancelled -- so one record carries send,
        delivery and both delays.
        """
        p, q = message.sender, message.receiver
        if (p, q) in samplers:
            sampler, direction = samplers[(p, q)], Direction.FORWARD
            link = (p, q)
        elif (q, p) in samplers:
            sampler, direction = samplers[(q, p)], Direction.REVERSE
            link = (q, p)
        else:
            raise SimulationError(
                f"{p!r} sent a message to {q!r} but there is no such link"
            )
        decision = (
            injector.on_dispatch(message, send_time)
            if injector is not None
            else None
        )
        if decision is not None and decision.drop:
            sampler.sample(rng, direction)  # burn the draw (see docstring)
            injector.record(
                decision.cause,
                send_time,
                recorder,
                edge=(p, q),
                message_uid=message.uid,
            )
            if emit_flow:
                recorder.emit(
                    "message.flow", record=self._flow_record(message, send_time, link)
                )
            return False  # injected drop: sent, never received
        delay = sampler.sample(rng, direction)
        if delay < 0:
            raise SimulationError(
                f"sampler for link ({p!r}, {q!r}) produced negative delay "
                f"{delay}"
            )
        if decision is not None and decision.delay_delta:
            corrupted = max(0.0, delay + decision.delay_delta)
            injector.record(
                "timestamp-corruption",
                send_time,
                recorder,
                edge=(p, q),
                message_uid=message.uid,
                original_delay=delay,
                corrupted_delay=corrupted,
            )
            delay = corrupted
        arrival = send_time + delay
        # The model cannot represent a receive before the receiver's start
        # event; the delivery system holds such messages until the start
        # instant (receives sort after starts within an instant).
        held = arrival < self._start_times[q]
        arrival = max(arrival, self._start_times[q])
        scheduler.schedule(arrival, PRIORITY_RECEIVE, ("recv", q, message))
        if decision is not None and decision.duplicate_extra is not None:
            # At-least-once delivery: the same message object is handed
            # over again later.  Views and message records deduplicate
            # by uid (first delivery wins), so downstream statistics
            # stay sound while the automaton sees the duplicate.
            scheduler.schedule(
                arrival + decision.duplicate_extra,
                PRIORITY_RECEIVE,
                ("recv", q, message),
            )
            if summary is not None:
                summary.messages_duplicated += 1
            injector.record(
                "duplicate-delivery",
                send_time,
                recorder,
                edge=(p, q),
                message_uid=message.uid,
                extra_delay=decision.duplicate_extra,
            )
        if delay_histogram is not None:
            delay_histogram.observe(arrival - send_time)
        if emit_flow:
            recorder.emit(
                "message.flow",
                record=self._flow_record(
                    message, send_time, link, arrival=arrival, held=held
                ),
            )
        return True

    def _flow_record(
        self,
        message: Message,
        send_time: Time,
        link: Tuple[ProcessorId, ProcessorId],
        arrival: Optional[Time] = None,
        held: bool = False,
    ):
        from repro.obs.flow import FlowRecord

        p, q = message.sender, message.receiver
        return FlowRecord(
            trace_id=message.trace_id,
            sender=p,
            receiver=q,
            link=link,
            assumption=repr(self._system.assumptions[link]),
            send_time=send_time,
            send_clock=send_time - self._start_times[p],
            status="delivered" if arrival is not None else "dropped",
            arrival_time=arrival,
            receive_clock=(
                None if arrival is None else arrival - self._start_times[q]
            ),
            held=held,
        )


def draw_start_times(
    processors,
    max_skew: Time,
    seed: int,
) -> Dict[ProcessorId, Time]:
    """Uniform start times in ``[0, max_skew]`` -- the unknown initial
    offsets the synchronizer is supposed to estimate away."""
    rng = random.Random(seed)
    return {p: rng.uniform(0.0, max_skew) for p in processors}


__all__ = [
    "SimulationError",
    "SimulationConfig",
    "RunSummary",
    "NetworkSimulator",
    "draw_start_times",
]
