"""Formal model of computation (paper, Section 2).

This subpackage implements the paper's model verbatim: processors are
automata driven by interrupt events; a :class:`~repro.model.steps.History`
records the real-timed steps of one processor; a
:class:`~repro.model.views.View` is the history with real times erased; an
:class:`~repro.model.execution.Execution` bundles one history per processor
together with the send/receive correspondence that defines message delays.

The *shifting* operations (:func:`~repro.model.steps.shift_history`,
:func:`~repro.model.execution.shift_execution`) are the engine of every
lower-bound argument in the paper: they move processors in real time
without changing any view.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "ExecutionBuilder": "repro.model.builder",
    "build_history": "repro.model.builder",
    "two_processor_execution": "repro.model.builder",
    "Event": "repro.model.events",
    "InterruptEvent": "repro.model.events",
    "Message": "repro.model.events",
    "MessageReceiveEvent": "repro.model.events",
    "MessageSendEvent": "repro.model.events",
    "StartEvent": "repro.model.events",
    "TimerEvent": "repro.model.events",
    "TimerSetEvent": "repro.model.events",
    "Execution": "repro.model.execution",
    "MessageRecord": "repro.model.execution",
    "executions_equivalent": "repro.model.execution",
    "shift_execution": "repro.model.execution",
    "shift_vector_between": "repro.model.execution",
    "History": "repro.model.steps",
    "ModelError": "repro.model.steps",
    "Step": "repro.model.steps",
    "TimedStep": "repro.model.steps",
    "shift_history": "repro.model.steps",
    "View": "repro.model.views",
    "views_equal": "repro.model.views",
}

__all__ = [*_EXPORTS]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
