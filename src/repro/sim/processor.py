"""Processor automata (paper, Section 2.1).

A processor is an automaton: a set of states with an initial state, plus a
transition function from ``(state, clock_time, interrupt_event)`` to
``(new_state, message_sends, timer_sets)``.  Subclass :class:`Automaton`
and implement :meth:`Automaton.on_interrupt`; the simulator drives the
automaton and records its steps into a :class:`~repro.model.steps.History`.

States must be plain comparable values (ints, strings, tuples, frozen
dataclasses): history validation checks that consecutive steps chain
``new_state == next old_state`` by equality.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Sequence, Tuple

from repro._types import ProcessorId, Time
from repro.model.events import Event


@dataclass(frozen=True)
class Send:
    """Instruction to send ``payload`` to neighbour ``to``."""

    to: ProcessorId
    payload: Any = None


@dataclass(frozen=True)
class SetTimer:
    """Instruction to request a timer interrupt at clock time ``clock_time``.

    Must be strictly in the processor's clock future (the model only
    allows timers "for subsequent clock times").
    """

    clock_time: Time


@dataclass(frozen=True)
class Transition:
    """Output of one transition-function application."""

    new_state: Any
    sends: Tuple[Send, ...] = ()
    timers: Tuple[SetTimer, ...] = ()

    @staticmethod
    def to(
        new_state: Any,
        sends: Sequence[Send] = (),
        timers: Sequence[SetTimer] = (),
    ) -> "Transition":
        """Build a transition from a new state plus optional sends/timers.

        Tuples are kept as given; any other sequence is copied into one.
        """
        if type(sends) is not tuple:
            sends = tuple(sends)
        if type(timers) is not tuple:
            timers = tuple(timers)
        return Transition(new_state, sends, timers)


class Automaton(ABC):
    """The behaviour of one processor.

    The automaton never sees real time -- only its clock time and the
    interrupt event.  That restriction is what makes every simulated run
    obey Claim 3.1 (algorithms cannot distinguish equivalent executions).
    """

    @abstractmethod
    def initial_state(self) -> Any:
        """State before the start event is processed."""

    @abstractmethod
    def on_interrupt(self, state: Any, clock_time: Time, event: Event) -> Transition:
        """The transition function.

        ``event`` is a start, message-receive or timer event.  Return the
        new state plus any sends and timer requests.
        """


class IdleAutomaton(Automaton):
    """Does nothing at all -- useful as a passive receiver in tests."""

    def initial_state(self) -> Any:
        return "idle"

    def on_interrupt(self, state: Any, clock_time: Time, event: Event) -> Transition:
        return Transition.to(state)


__all__ = ["Send", "SetTimer", "Transition", "Automaton", "IdleAutomaton"]
