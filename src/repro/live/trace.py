"""Probe logs: the durable record of live traffic, replayable offline.

The correction server appends every *admitted* observation to a
:class:`ProbeLog` in ingestion order.  That order is the replay
coordinate system: the server stamps each answer with the *cut* (log
length) its result was computed from, and
:func:`views_from_probes` rebuilds, for any cut, the exact
:class:`~repro.model.views.View` objects the batch pipeline needs --
synthetic views holding precisely the observable message timing
(send/receive clock reads, Lemma 6.1) that live traffic produced.  By
the streaming == batch invariant of
:class:`~repro.extensions.online.OnlineSynchronizer`, running
:meth:`ClockSynchronizer.from_views
<repro.core.synchronizer.ClockSynchronizer.from_views>` on the cut's
views yields corrections identical to what the server answered live
(:mod:`repro.live.replay` asserts this byte-for-byte).

On disk a probe log is JSONL, one ``{"type": "live.probe", ...}``
record per line, append-friendly like every other stream in the repo
(:mod:`repro.runner.sink` conventions).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Union

from repro._types import ProcessorId
from repro.live.wire import Report
from repro.model.events import (
    Message,
    MessageReceiveEvent,
    MessageSendEvent,
    TimerEvent,
)
from repro.model.steps import Step
from repro.model.views import View
from repro.records import RecordError, dumps_record, iter_records, write_lines

#: The JSONL record type tag of one probe observation.
PROBE_RECORD_TYPE = "live.probe"

_RECORD_FIELDS = ("sender", "receiver", "seq", "send_clock", "recv_clock")


class ProbeLogError(ValueError):
    """A probe log file failed to parse or validate."""


class ProbeLog:
    """An ingestion-ordered sequence of admitted probe observations.

    The log is append-only; ``records[:cut]`` for any ``cut`` is a
    meaningful prefix (everything the server had admitted when an
    answer was computed).  Duplicate ``(sender, receiver, seq)``
    triples are rejected at :meth:`append` -- deduplication happens at
    the peer (first delivery wins), and a log with duplicates would
    make cut arithmetic ambiguous.
    """

    def __init__(self, records: Iterable[Report] = ()) -> None:
        self._records: List[Report] = []
        self._seen: set = set()
        for record in records:
            self.append(record)

    def append(self, record: Report) -> int:
        """Append one observation; returns the new log length (the cut)."""
        key = (record.sender, record.receiver, record.seq)
        if key in self._seen:
            raise ProbeLogError(
                f"duplicate probe {record.sender!r}->{record.receiver!r} "
                f"seq {record.seq} (peers must dedupe before reporting)"
            )
        self._seen.add(key)
        self._records.append(record)
        return len(self._records)

    @property
    def records(self) -> Sequence[Report]:
        return tuple(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    def views(
        self,
        cut: Optional[int] = None,
        *,
        processors: Iterable[ProcessorId] = (),
    ) -> Dict[ProcessorId, View]:
        """The views induced by the first ``cut`` records (default: all)."""
        records = self._records if cut is None else self._records[:cut]
        return views_from_probes(records, processors=processors)

    def processors(self) -> List[ProcessorId]:
        """Every processor that appears in the log, sorted by repr."""
        seen = set()
        for r in self._records:
            seen.add(r.sender)
            seen.add(r.receiver)
        return sorted(seen, key=repr)


def views_from_probes(
    records: Sequence[Report],
    *,
    processors: Iterable[ProcessorId] = (),
) -> Dict[ProcessorId, View]:
    """Synthesize :class:`~repro.model.views.View` objects from probes.

    Each record becomes one message: a send step (clock read
    ``send_clock``) in the sender's view and a receive step (clock read
    ``recv_clock``) in the receiver's view, with matching deterministic
    uids, so :func:`repro.core.estimates.estimated_delays` recovers
    exactly ``recv_clock - send_clock`` per record.  Steps are ordered
    by clock time within each view -- the order a live peer would have
    experienced them.  ``processors`` forces empty views into the
    result (the batch pipeline wants a view per system processor even
    before a processor has seen traffic).
    """
    steps: Dict[ProcessorId, List[Step]] = {p: [] for p in processors}
    seen: set = set()
    for uid, record in enumerate(records):
        key = (record.sender, record.receiver, record.seq)
        if key in seen:
            continue  # defensive: first delivery wins, like View timing
        seen.add(key)
        message = Message(
            sender=record.sender,
            receiver=record.receiver,
            payload=("probe", record.seq),
            uid=uid,
        )
        steps.setdefault(record.sender, []).append(
            Step(
                old_state="live",
                clock_time=record.send_clock,
                interrupt=TimerEvent(clock_time=record.send_clock),
                new_state="live",
                sends=(MessageSendEvent(message),),
            )
        )
        steps.setdefault(record.receiver, []).append(
            Step(
                old_state="live",
                clock_time=record.recv_clock,
                interrupt=MessageReceiveEvent(message),
                new_state="live",
            )
        )
    return {
        p: View(
            processor=p,
            steps=tuple(
                sorted(p_steps, key=lambda s: (s.clock_time,))
            ),
        )
        for p, p_steps in steps.items()
    }


# ----------------------------------------------------------------------
# JSONL round trip
# ----------------------------------------------------------------------

def record_to_json(record: Report) -> dict:
    """One probe observation as a JSONL-ready dict."""
    out = {"type": PROBE_RECORD_TYPE}
    for name in _RECORD_FIELDS:
        out[name] = getattr(record, name)
    return out


def record_from_json(data: Mapping) -> Report:
    """Parse one probe record dict; raise :class:`ProbeLogError` on defects."""
    if data.get("type") != PROBE_RECORD_TYPE:
        raise ProbeLogError(
            f"not a {PROBE_RECORD_TYPE} record: {data.get('type')!r}"
        )
    try:
        return Report(
            sender=data["sender"],
            receiver=data["receiver"],
            seq=int(data["seq"]),
            send_clock=float(data["send_clock"]),
            recv_clock=float(data["recv_clock"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProbeLogError(f"malformed probe record: {exc}") from None


def write_probe_log(
    path: Union[str, Path], log: Union[ProbeLog, Sequence[Report]]
) -> Path:
    """Write a probe log as JSONL; returns the path."""
    records = log.records if isinstance(log, ProbeLog) else log
    return write_lines(path, (dumps_record(record_to_json(r)) for r in records))


def load_probe_log(path: Union[str, Path]) -> ProbeLog:
    """Load a JSONL probe log, validating every record.

    Lines are read by :func:`repro.records.iter_records`: a torn final
    fragment (crash mid-append) is dropped; any other defect, including
    a newline-terminated bad final line, raises :class:`ProbeLogError`
    naming ``path:line``.
    """
    log = ProbeLog()
    try:
        for number, data in iter_records(path):
            log.append(record_from_json(data))
    except RecordError as exc:
        raise ProbeLogError(str(exc)) from None
    except ProbeLogError as exc:
        raise ProbeLogError(f"{path}:{number}: {exc}") from None
    return log


def validate_probe_log_file(path: Union[str, Path]) -> int:
    """Validate a probe log file; returns the number of records."""
    return len(load_probe_log(path))


__all__ = [
    "PROBE_RECORD_TYPE",
    "ProbeLog",
    "ProbeLogError",
    "load_probe_log",
    "record_from_json",
    "record_to_json",
    "validate_probe_log_file",
    "views_from_probes",
    "write_probe_log",
]
