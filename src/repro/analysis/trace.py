"""Execution traces: JSON serialization of executions and views.

Archiving an execution makes runs auditable and enables golden tests:
the simulator's output can be stored, diffed, reloaded on another
machine, and re-synchronized bit-for-bit.  The format is plain JSON with
a small tagged codec for the non-JSON values the model uses (tuples,
frozensets, and the standard protocol payloads).

Custom automata states/payloads beyond those types raise
:class:`TraceError` at save time -- loudly, rather than silently pickling
arbitrary objects (traces are meant to be portable and reviewable).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

from repro.model.events import (
    Event,
    Message,
    MessageReceiveEvent,
    MessageSendEvent,
    StartEvent,
    TimerEvent,
    TimerSetEvent,
)
from repro.model.execution import Execution
from repro.model.steps import History, Step, TimedStep
from repro.records import read_document, write_atomic
from repro.sim.protocols import Echo, Probe


class TraceError(ValueError):
    """The object graph contains a value the trace format cannot carry."""


#: Format version; bump on any incompatible change.
#:
#: v2 added the optional ``"telemetry"`` block (message flow records +
#: simulated-time series captured alongside the run).  The execution
#: payload is unchanged, so v1 files still load; v2 is only written when
#: telemetry is actually attached, keeping telemetry-free saves
#: bit-identical to v1.
TRACE_VERSION = 2

#: Versions :func:`execution_from_dict` accepts.
SUPPORTED_TRACE_VERSIONS = (1, 2)


# ----------------------------------------------------------------------
# Value codec (states, payloads, processor ids)
# ----------------------------------------------------------------------


def _encode_value(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, tuple):
        return {"__t__": "tuple", "v": [_encode_value(x) for x in value]}
    if isinstance(value, list):
        return {"__t__": "list", "v": [_encode_value(x) for x in value]}
    if isinstance(value, frozenset):
        encoded = [_encode_value(x) for x in value]
        encoded.sort(key=json.dumps)
        return {"__t__": "frozenset", "v": encoded}
    if isinstance(value, Probe):
        return {
            "__t__": "probe",
            "origin": _encode_value(value.origin),
            "round": value.round,
        }
    if isinstance(value, Echo):
        return {
            "__t__": "echo",
            "probe": _encode_value(value.probe),
            "responder": _encode_value(value.responder),
        }
    raise TraceError(
        f"value of type {type(value).__name__} is not trace-serializable; "
        f"use JSON-native types, tuples, frozensets, or Probe/Echo payloads"
    )


def _decode_value(value: Any) -> Any:
    if isinstance(value, dict):
        tag = value.get("__t__")
        if tag == "tuple":
            return tuple(_decode_value(x) for x in value["v"])
        if tag == "list":
            return [_decode_value(x) for x in value["v"]]
        if tag == "frozenset":
            return frozenset(_decode_value(x) for x in value["v"])
        if tag == "probe":
            return Probe(
                origin=_decode_value(value["origin"]), round=value["round"]
            )
        if tag == "echo":
            return Echo(
                probe=_decode_value(value["probe"]),
                responder=_decode_value(value["responder"]),
            )
        raise TraceError(f"unknown value tag {tag!r}")
    return value


# ----------------------------------------------------------------------
# Events / steps / histories
# ----------------------------------------------------------------------


def _encode_message(message: Message) -> Dict[str, Any]:
    return {
        "sender": _encode_value(message.sender),
        "receiver": _encode_value(message.receiver),
        "payload": _encode_value(message.payload),
        "uid": message.uid,
    }


def _decode_message(data: Mapping[str, Any]) -> Message:
    return Message(
        sender=_decode_value(data["sender"]),
        receiver=_decode_value(data["receiver"]),
        payload=_decode_value(data["payload"]),
        uid=data["uid"],
    )


def _encode_event(event: Event) -> Dict[str, Any]:
    if isinstance(event, StartEvent):
        return {"kind": "start"}
    if isinstance(event, MessageReceiveEvent):
        return {"kind": "recv", "message": _encode_message(event.message)}
    if isinstance(event, MessageSendEvent):
        return {"kind": "send", "message": _encode_message(event.message)}
    if isinstance(event, TimerEvent):
        return {"kind": "timer", "clock_time": event.clock_time}
    if isinstance(event, TimerSetEvent):
        return {"kind": "timer_set", "clock_time": event.clock_time}
    raise TraceError(f"unknown event type {type(event).__name__}")


def _decode_event(data: Mapping[str, Any]) -> Event:
    kind = data["kind"]
    if kind == "start":
        return StartEvent()
    if kind == "recv":
        return MessageReceiveEvent(message=_decode_message(data["message"]))
    if kind == "send":
        return MessageSendEvent(message=_decode_message(data["message"]))
    if kind == "timer":
        return TimerEvent(clock_time=data["clock_time"])
    if kind == "timer_set":
        return TimerSetEvent(clock_time=data["clock_time"])
    raise TraceError(f"unknown event kind {kind!r}")


def _encode_step(step: Step) -> Dict[str, Any]:
    return {
        "old_state": _encode_value(step.old_state),
        "clock_time": step.clock_time,
        "interrupt": _encode_event(step.interrupt),
        "new_state": _encode_value(step.new_state),
        "sends": [_encode_event(e) for e in step.sends],
        "timer_sets": [_encode_event(e) for e in step.timer_sets],
    }


def _decode_step(data: Mapping[str, Any]) -> Step:
    return Step(
        old_state=_decode_value(data["old_state"]),
        clock_time=data["clock_time"],
        interrupt=_decode_event(data["interrupt"]),
        new_state=_decode_value(data["new_state"]),
        sends=tuple(_decode_event(e) for e in data["sends"]),
        timer_sets=tuple(_decode_event(e) for e in data["timer_sets"]),
    )


def _encode_history(history: History) -> Dict[str, Any]:
    return {
        "processor": _encode_value(history.processor),
        "steps": [
            {"real_time": ts.real_time, "step": _encode_step(ts.step)}
            for ts in history.steps
        ],
    }


def _decode_history(data: Mapping[str, Any]) -> History:
    return History(
        processor=_decode_value(data["processor"]),
        steps=tuple(
            TimedStep(real_time=ts["real_time"], step=_decode_step(ts["step"]))
            for ts in data["steps"]
        ),
    )


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------


def telemetry_to_dict(
    flow_log=None, timeline=None
) -> Optional[Dict[str, Any]]:
    """Optional telemetry block: flow records + simulated-time series.

    Returns ``None`` when neither is given (so saves stay version 1);
    accepts a :class:`~repro.obs.flow.FlowLog` and/or a
    :class:`~repro.obs.timeline.Timeline`.
    """
    if flow_log is None and timeline is None:
        return None
    block: Dict[str, Any] = {}
    if flow_log is not None:
        from repro.obs.flow import flow_record_to_dict

        block["messages"] = [
            flow_record_to_dict(r) for r in flow_log.records()
        ]
    if timeline is not None:
        block["timeseries"] = {
            name: {
                "description": timeline.get(name).description,
                "points": [[t, v] for t, v in timeline.get(name).points],
            }
            for name in timeline.names()
        }
    return block


def execution_to_dict(
    alpha: Execution, telemetry: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """The whole execution as a JSON-compatible dict.

    ``telemetry`` (see :func:`telemetry_to_dict`) embeds the run's flow
    records / timelines; its presence bumps the written version to 2 so
    telemetry-free traces remain byte-identical to the v1 format.
    """
    data: Dict[str, Any] = {
        "version": TRACE_VERSION if telemetry is not None else 1,
        "histories": [_encode_history(h) for h in alpha.histories.values()],
    }
    if telemetry is not None:
        data["telemetry"] = telemetry
    return data


def execution_from_dict(data: Mapping[str, Any]) -> Execution:
    """Rebuild an execution; validates the result before returning it."""
    if data.get("version") not in SUPPORTED_TRACE_VERSIONS:
        raise TraceError(
            f"trace version {data.get('version')!r} unsupported "
            f"(expected one of {SUPPORTED_TRACE_VERSIONS})"
        )
    histories = [_decode_history(h) for h in data["histories"]]
    alpha = Execution({h.processor: h for h in histories})
    alpha.validate()
    return alpha


def telemetry_from_dict(data: Mapping[str, Any]) -> Optional[Dict[str, Any]]:
    """The embedded telemetry block of a trace dict (``None`` on v1)."""
    return data.get("telemetry")


def save_execution(
    alpha: Execution,
    path: Union[str, Path],
    telemetry: Optional[Dict[str, Any]] = None,
) -> None:
    """Write the execution as JSON to ``path``."""
    document = execution_to_dict(alpha, telemetry=telemetry)
    write_atomic(path, json.dumps(document, indent=1, sort_keys=True))


def load_execution(path: Union[str, Path]) -> Execution:
    """Read an execution back from JSON written by :func:`save_execution`."""
    return execution_from_dict(read_document(path))


def load_execution_with_telemetry(
    path: Union[str, Path],
):
    """Read ``(execution, telemetry_block_or_None)`` from a trace file."""
    data = read_document(path)
    return execution_from_dict(data), telemetry_from_dict(data)


__all__ = [
    "TraceError",
    "TRACE_VERSION",
    "SUPPORTED_TRACE_VERSIONS",
    "execution_to_dict",
    "execution_from_dict",
    "telemetry_to_dict",
    "telemetry_from_dict",
    "save_execution",
    "load_execution",
    "load_execution_with_telemetry",
]
