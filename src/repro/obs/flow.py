"""Message causality tracing: the send -> queue -> deliver lifecycle.

PR 2's spans observe the *process* (wall-clock stages); this module
observes the *protocol*.  Every message the simulator dispatches is
recorded as one :class:`FlowRecord` carrying both sides of the paper's
central distinction:

* the real delay ``d(m)`` -- ground truth, visible only to the outside
  observer;
* the estimated delay ``d~(m) = recv_clock - send_clock`` -- what the
  receiver can actually compute (Lemma 6.1), off from ``d(m)`` by
  exactly the unknown start-time difference ``S_p - S_q``;

plus the link's delay-assumption attributes, the send/receive clock
readings, and whether the delivery system held the message until the
receiver's start instant.  Trace ids are the model's message uids (the
paper's "messages are unique" assumption doubles as a tracing scheme).

Two export shapes:

* **Chrome trace-event flow events** -- each message becomes an
  in-flight slice on its directed edge's track plus a ``s``/``f`` flow
  arrow from the sender's send marker to the receiver's receive marker.
  Timestamps are *simulated* seconds (rendered as microseconds), on a
  separate ``pid`` so the file loads in Perfetto alongside the
  wall-clock span trace of :func:`repro.obs.export.chrome_trace`.
* **Causal-DAG JSONL** -- one JSON object per message, the grep/pandas
  form of the same data.

The :class:`FlowLog` is a recorder *observer* (see
:meth:`repro.obs.recorder.Recorder.add_observer`): the simulator emits
``message.flow`` events only when a recorder is installed and at least
one observer is attached, so the disabled path stays free.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.obs.export import _trace_events, chrome_trace
from repro.obs.spans import Span
from repro.records import PathLike, dumps_record, write_atomic, write_lines


#: Flow lifecycle stage names (the causal-DAG node kinds).
STAGE_SEND = "send"
STAGE_DELIVER = "deliver"
STAGE_DROP = "drop"

#: Rendered width of the send/receive instant markers, in microseconds.
_MARKER_US = 1.0


@dataclass(frozen=True)
class FlowRecord:
    """One message's complete lifecycle, as seen by the outside observer.

    ``delay``/``arrival_time``/``receive_clock`` are ``None`` for
    messages lost to an injected fault (status ``"dropped"``) -- the
    model's permanent "in flight" state.  ``held`` marks messages the
    delivery system parked until the receiver's start instant; for those
    ``delay`` includes the holding time (it *is* the model's ``d(m)``).
    """

    trace_id: int
    sender: Any
    receiver: Any
    link: Tuple[Any, Any]
    assumption: str
    send_time: float
    send_clock: float
    status: str = "delivered"
    arrival_time: Optional[float] = None
    receive_clock: Optional[float] = None
    held: bool = False

    @property
    def delay(self) -> Optional[float]:
        """The real delay ``d(m)`` (``None`` while never delivered)."""
        if self.arrival_time is None:
            return None
        return self.arrival_time - self.send_time

    @property
    def estimated_delay(self) -> Optional[float]:
        """``d~(m)``, the views-computable delay estimate of Lemma 6.1."""
        if self.receive_clock is None:
            return None
        return self.receive_clock - self.send_clock

    @property
    def estimate_error(self) -> Optional[float]:
        """``d~(m) - d(m)``; equals ``S_p - S_q`` on every delivery."""
        if self.arrival_time is None:
            return None
        return self.estimated_delay - self.delay

    @property
    def edge(self) -> Tuple[Any, Any]:
        """The directed edge ``(sender, receiver)`` travelled."""
        return (self.sender, self.receiver)


@dataclass(frozen=True)
class EdgeErrorStats:
    """Per-directed-edge statistics of delays and estimate errors."""

    messages: int
    dropped: int
    mean_delay: float
    mean_estimated_delay: float
    estimate_error: float
    error_spread: float

    @property
    def delivered(self) -> int:
        return self.messages - self.dropped


class FlowLog:
    """Collects :class:`FlowRecord` objects; thread-safe, append-only.

    Attach to a recorder (``recorder.add_observer(flow_log)``) before a
    simulation to capture every dispatched message, or feed records
    directly via :meth:`record` (the execution replayers do this).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: List[FlowRecord] = []

    # -- ingestion -----------------------------------------------------

    def on_telemetry(self, kind: str, data: Mapping[str, Any]) -> None:
        """Recorder-observer entry point; ignores non-flow events."""
        if kind == "message.flow":
            self.record(data["record"])

    def record(self, record: FlowRecord) -> None:
        with self._lock:
            self._records.append(record)

    # -- queries -------------------------------------------------------

    def records(self) -> List[FlowRecord]:
        """Snapshot of all records, in dispatch order."""
        with self._lock:
            return list(self._records)

    def delivered(self) -> List[FlowRecord]:
        return [r for r in self.records() if r.status == "delivered"]

    def per_edge_error_stats(self) -> Dict[Tuple[Any, Any], EdgeErrorStats]:
        """Delay vs delay-estimate statistics per directed edge.

        ``estimate_error`` is the mean of ``d~(m) - d(m)`` over the
        edge's deliveries; by Lemma 6.1 every message on one directed
        edge has the *same* error (``S_p - S_q``), so ``error_spread``
        (max - min of the per-message errors) should be ~0 on honest
        telemetry -- a nonzero spread means the records are corrupt.
        """
        grouped: Dict[Tuple[Any, Any], List[FlowRecord]] = {}
        for record in self.records():
            grouped.setdefault(record.edge, []).append(record)
        out: Dict[Tuple[Any, Any], EdgeErrorStats] = {}
        for edge, records in grouped.items():
            delivered = [r for r in records if r.status == "delivered"]
            if delivered:
                delays = [r.delay for r in delivered]
                estimates = [r.estimated_delay for r in delivered]
                errors = [r.estimate_error for r in delivered]
                stats = EdgeErrorStats(
                    messages=len(records),
                    dropped=len(records) - len(delivered),
                    mean_delay=sum(delays) / len(delays),
                    mean_estimated_delay=sum(estimates) / len(estimates),
                    estimate_error=sum(errors) / len(errors),
                    error_spread=max(errors) - min(errors),
                )
            else:
                stats = EdgeErrorStats(
                    messages=len(records),
                    dropped=len(records),
                    mean_delay=float("nan"),
                    mean_estimated_delay=float("nan"),
                    estimate_error=float("nan"),
                    error_spread=float("nan"),
                )
            out[edge] = stats
        return out

    def reset(self) -> None:
        with self._lock:
            self._records.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def __repr__(self) -> str:
        return f"FlowLog({len(self)} messages)"


# ----------------------------------------------------------------------
# Causal-DAG JSONL
# ----------------------------------------------------------------------


def flow_record_to_dict(record: FlowRecord) -> Dict[str, Any]:
    """One record as a JSON-clean dict (also the trace-v2 embed shape)."""
    return {
        "record": "message",
        "trace_id": record.trace_id,
        "sender": repr(record.sender),
        "receiver": repr(record.receiver),
        "link": [repr(record.link[0]), repr(record.link[1])],
        "assumption": record.assumption,
        "status": record.status,
        "held": record.held,
        "send": {"t": record.send_time, "clock": record.send_clock},
        "deliver": (
            None
            if record.arrival_time is None
            else {"t": record.arrival_time, "clock": record.receive_clock}
        ),
        "d": record.delay,
        "d_tilde": record.estimated_delay,
    }


def causal_dag_lines(flow_log: FlowLog) -> Iterator[str]:
    """One JSON object per message -- the causal DAG in JSONL form.

    Each record is a causal edge from its send node to its deliver node;
    records sharing a processor are totally ordered by time, so the file
    determines the full happens-before relation of the execution.
    """
    for record in flow_log.records():
        yield dumps_record(flow_record_to_dict(record))


def write_causal_dag(path: PathLike, flow_log: FlowLog) -> Path:
    """Write the causal-DAG JSONL; returns the path."""
    return write_lines(path, causal_dag_lines(flow_log))


# ----------------------------------------------------------------------
# Chrome trace-event flow export
# ----------------------------------------------------------------------

#: pid of the protocol (simulated-time) track group; the wall-clock span
#: trace of :func:`repro.obs.export.chrome_trace` uses pid 1.
FLOW_PID = 2


def chrome_flow_events(flow_log: FlowLog, pid: int = FLOW_PID) -> List[Dict]:
    """Flow records as Chrome trace events (simulated-time timeline).

    Layout: one track per processor carrying instant send/receive
    markers, one track per directed edge carrying the in-flight slice of
    each message, and an ``s``/``f`` flow arrow per delivered message
    linking its send marker to its receive marker.  A flow's id is its
    record's position in the log (message uids restart with every run
    a log may span).  Timestamps are simulated seconds scaled to
    microseconds.
    """
    records = flow_log.records()
    processors = sorted(
        {r.sender for r in records} | {r.receiver for r in records}, key=repr
    )
    edges = sorted({r.edge for r in records}, key=repr)
    proc_tids = {p: i + 1 for i, p in enumerate(processors)}
    edge_tids = {
        e: len(processors) + i + 1 for i, e in enumerate(edges)
    }

    events: List[Dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": "protocol (simulated time)"},
        }
    ]
    for p, tid in proc_tids.items():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": f"proc {p!r}"},
            }
        )
    for (p, q), tid in edge_tids.items():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": f"link {p!r}->{q!r} in flight"},
            }
        )

    for flow_id, record in enumerate(records):
        send_us = record.send_time * 1e6
        args = {
            "trace_id": record.trace_id,
            "assumption": record.assumption,
            "send_clock": record.send_clock,
        }
        events.append(
            {
                "name": f"send m{record.trace_id}",
                "cat": "proto",
                "ph": "X",
                "ts": round(send_us, 3),
                "dur": _MARKER_US,
                "pid": pid,
                "tid": proc_tids[record.sender],
                "args": args,
            }
        )
        if record.status == "dropped":
            events.append(
                {
                    "name": f"drop m{record.trace_id}",
                    "cat": "proto",
                    "ph": "i",
                    "s": "p",
                    "ts": round(send_us, 3),
                    "pid": pid,
                    "tid": edge_tids[record.edge],
                }
            )
            continue
        arrival_us = record.arrival_time * 1e6
        events.append(
            {
                "name": f"m{record.trace_id} in flight",
                "cat": "proto",
                "ph": "X",
                "ts": round(send_us, 3),
                "dur": round(max(arrival_us - send_us, _MARKER_US), 3),
                "pid": pid,
                "tid": edge_tids[record.edge],
                "args": {
                    "trace_id": record.trace_id,
                    "d": record.delay,
                    "d_tilde": record.estimated_delay,
                    "held": record.held,
                },
            }
        )
        events.append(
            {
                "name": f"recv m{record.trace_id}",
                "cat": "proto",
                "ph": "X",
                "ts": round(arrival_us, 3),
                "dur": _MARKER_US,
                "pid": pid,
                "tid": proc_tids[record.receiver],
                "args": {
                    "trace_id": record.trace_id,
                    "receive_clock": record.receive_clock,
                },
            }
        )
        flow_common = {
            "name": f"m{record.trace_id}",
            "cat": "flow",
            "id": flow_id,
            "pid": pid,
        }
        events.append(
            {
                **flow_common,
                "ph": "s",
                "ts": round(send_us + _MARKER_US / 2, 3),
                "tid": proc_tids[record.sender],
            }
        )
        events.append(
            {
                **flow_common,
                "ph": "f",
                "bp": "e",
                "ts": round(arrival_us + _MARKER_US / 2, 3),
                "tid": proc_tids[record.receiver],
            }
        )
    return events


def write_flow_trace(
    path: PathLike,
    flow_log: FlowLog,
    spans: Optional[Sequence[Span]] = None,
) -> Path:
    """Write a Perfetto-loadable trace of the message flows.

    With ``spans`` given, the wall-clock span trace is merged into the
    same document (on its own pid), so one file shows both the process
    and the protocol view.
    """
    document = (
        chrome_trace(spans)
        if spans
        else {"displayTimeUnit": "ms", "traceEvents": []}
    )
    document["traceEvents"].extend(chrome_flow_events(flow_log))
    return write_atomic(path, json.dumps(document) + "\n")


def validate_flow_trace_file(path: PathLike) -> int:
    """Check a flow trace's shape and pairing; returns the flow count.

    Every flow-start (``ph: "s"``) must have exactly one matching
    flow-end (``ph: "f"``) with the same id, at a timestamp no earlier
    than the start -- a broken pairing renders as dangling arrows in
    Perfetto, so CI treats it as malformed.
    """
    starts: Dict[Any, float] = {}
    ends: Dict[Any, float] = {}
    for event in _trace_events(path):
        if event["ph"] in ("s", "f"):
            if "id" not in event or "ts" not in event:
                raise ValueError(
                    f"{path}: flow event missing id/ts: {event}"
                )
            bucket = starts if event["ph"] == "s" else ends
            if event["id"] in bucket:
                raise ValueError(
                    f"{path}: duplicate flow {event['ph']!r} id {event['id']}"
                )
            bucket[event["id"]] = event["ts"]
    if set(starts) != set(ends):
        raise ValueError(
            f"{path}: unpaired flow ids: "
            f"{sorted(set(starts) ^ set(ends))[:10]}"
        )
    for flow_id, ts in starts.items():
        if ends[flow_id] < ts:
            raise ValueError(
                f"{path}: flow {flow_id} ends before it starts"
            )
    return len(starts)


__all__ = [
    "EdgeErrorStats",
    "FLOW_PID",
    "FlowLog",
    "FlowRecord",
    "STAGE_DELIVER",
    "STAGE_DROP",
    "STAGE_SEND",
    "causal_dag_lines",
    "chrome_flow_events",
    "flow_record_to_dict",
    "validate_flow_trace_file",
    "write_causal_dag",
    "write_flow_trace",
]
