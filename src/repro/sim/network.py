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

Messages travel on the run's :class:`~repro.sim.wire.Wire`, the one
simulated delivery system it shares with the reliable-transport simulation:
delay draws, injected faults, held pre-start arrivals and fail-silent
crash windows are decided there.  The simulator keeps the automata, the
recorded histories, and the flow records and delay histogram of
instrumented runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple

from repro._types import ProcessorId, Time
from repro.delays.distributions import DelaySampler
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
from repro.sim.scheduler import EventScheduler, PRIORITY_START, PRIORITY_TIMER
from repro.sim.wire import RunSummary, SimulationError, Wire, shared_streams


@dataclass
class SimulationConfig:
    """Tunables for one simulation run."""

    #: Hard cap on processed events; exceeded = runaway protocol.
    max_events: int = 1_000_000
    #: Validate histories and delay-assumption admissibility after the run.
    validate: bool = True


class NetworkSimulator:
    """Executes automata over a system with sampled message delays.

    Parameters
    ----------
    system:
        The ``(G, A)`` pair; delays are checked against ``A`` post-run.
    samplers:
        One delay sampler per canonical link of the topology.  Each run
        draws from :func:`~repro.delays.distributions.run_copy` of them:
        the stateless built-ins are shared, a
        :class:`~repro.delays.distributions.CorrelatedLoad` gets a fresh
        copy (its base is redrawn per run), and any other sampler a deep
        copy, so stateful samplers never leak state across runs.
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
        wire = Wire(
            shared_streams(self._samplers, random.Random(self._seed)),
            self._start_times,
            scheduler,
            injector,
            recorder,
        )
        for p, s_p in self._start_times.items():
            scheduler.schedule(s_p, PRIORITY_START, ("start", p))

        try:
            steps = self._event_loop(automata, wire)
        finally:
            recorder.set_sim_time(None)

        summary = wire.finish()
        self._last_fault_log = wire.fault_log
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
        self, automata: Mapping[ProcessorId, Automaton], wire: Wire
    ) -> Dict[ProcessorId, List[TimedStep]]:
        """Pop and apply events until the scheduler drains; returns each
        processor's timed steps."""
        scheduler, summary, recorder = wire.scheduler, wire.summary, wire.recorder
        starts = self._start_times
        faulty = wire.injector is not None
        processors = self._system.processors
        states: Dict[ProcessorId, Any] = {
            p: automata[p].initial_state() for p in processors
        }
        steps: Dict[ProcessorId, List[TimedStep]] = {p: [] for p in processors}
        pending_timers: Dict[ProcessorId, Set[float]] = {
            p: set() for p in processors
        }
        # Sampled only on instrumented runs; the disabled path pays one
        # `enabled` check per run, nothing per event.  Samples are
        # buffered and observed in order when the loop ends (by
        # quiescence or by a raise), one locked batch per histogram.
        sampling = recorder.enabled
        depth_histogram = (
            recorder.histogram(
                "sim.scheduler.queue_depth",
                boundaries=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024),
                description="future-event-list depth sampled at each pop",
            )
            if sampling
            else None
        )
        delay_histogram = (
            recorder.histogram(
                "sim.message.delay",
                description="real delay d(m) of each dispatched message",
            )
            if sampling
            else None
        )
        depth_samples: List[int] = []
        delay_samples: List[Time] = []
        # Flow records are built only when someone is listening (e.g. a
        # FlowLog observer); the disabled path pays one check per run.
        emit_flow = recorder.enabled and bool(recorder.observers)
        max_events = self._config.max_events
        events = 0

        try:
            while True:
                entry = scheduler.pop()
                if entry is None:
                    return steps
                events += 1
                if events > max_events:
                    raise SimulationError(
                        f"event budget of {max_events} exceeded; "
                        f"protocol does not quiesce"
                    )
                if sampling:
                    depth_samples.append(scheduler.raw_depth)
                now = entry.real_time
                payload = entry.payload
                kind = payload[0]
                if kind == "start":
                    p = payload[1]
                    # Start events always fire: the model requires every
                    # history to begin with a start, and a crash window
                    # covering it silences the processor from its first
                    # interrupt onwards instead.
                    event = StartEvent()
                elif kind == "recv":
                    _, p, message = payload
                    if faulty and wire.suppressed(
                        p, now, "recv", message_uid=message.uid
                    ):
                        continue
                    summary.messages_delivered += 1
                    event = MessageReceiveEvent(message)
                elif kind == "timer":
                    _, p, clock_t = payload
                    pending_timers[p].discard(round(clock_t, 9))
                    # Timers due inside a crash window are lost, not
                    # deferred (condition 6 only requires fired timers
                    # to have been set, so the history stays valid).
                    if faulty and wire.suppressed(
                        p, now, "timer", clock_time=clock_t
                    ):
                        continue
                    event = TimerEvent(clock_t)
                else:  # pragma: no cover - internal invariant
                    raise SimulationError(f"unknown payload {payload!r}")

                clock = now - starts[p]
                old_state = states[p]
                transition = automata[p].on_interrupt(old_state, clock, event)
                if not isinstance(transition, Transition):
                    raise SimulationError(
                        f"automaton of {p!r} returned {transition!r}, "
                        f"expected a Transition"
                    )

                send_events = []
                for send in transition.sends:
                    message = wire.message(p, send.to, send.payload)
                    send_events.append(MessageSendEvent(message))
                    delivery = wire.send(message, now, (p, send.to))
                    if delivery is not None and sampling:
                        delay_samples.append(delivery[0] - now)
                    if emit_flow:
                        recorder.emit(
                            "message.flow",
                            record=self._flow_record(message, now, delivery),
                        )

                timer_events = []
                for timer in transition.timers:
                    clock_time = timer.clock_time
                    if clock_time <= clock + 1e-12:
                        raise SimulationError(
                            f"{p!r} set a timer for clock {clock_time} at "
                            f"clock {clock}; timers must be strictly in the "
                            f"future"
                        )
                    timer_events.append(TimerSetEvent(clock_time))
                    key = round(clock_time, 9)
                    pending = pending_timers[p]
                    if key not in pending:
                        pending.add(key)
                        scheduler.schedule(
                            starts[p] + clock_time,
                            PRIORITY_TIMER,
                            ("timer", p, clock_time),
                        )

                new_state = transition.new_state
                states[p] = new_state
                steps[p].append(
                    TimedStep(
                        now,
                        Step(
                            old_state, clock, event, new_state,
                            tuple(send_events), tuple(timer_events),
                        ),
                    )
                )
        finally:
            if sampling:
                depth_histogram.observe_many(depth_samples)
                delay_histogram.observe_many(delay_samples)

    # ------------------------------------------------------------------

    def _flow_record(
        self,
        message: Message,
        send_time: Time,
        delivery: Optional[Tuple[Time, bool]],
    ):
        """The :class:`~repro.obs.flow.FlowRecord` of one sent message:
        the delivery system knows its fate at the send instant (the
        delay is sampled there and receives are never cancelled), so one
        record carries send, delivery and both delays."""
        from repro.obs.flow import FlowRecord

        p, q = message.sender, message.receiver
        link = (p, q) if (p, q) in self._samplers else (q, p)
        arrival, held = delivery if delivery is not None else (None, False)
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
