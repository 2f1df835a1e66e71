"""Structured JSONL logging, correlated with spans and simulated time.

The runner and faults paths used to report operational events through
ad-hoc ``logging.warning`` strings -- unparseable by the same tooling
that consumes every other telemetry stream in :mod:`repro.obs`.  This
module gives those paths one structured emitter:

* :func:`log_event` builds a JSON record ``{"record": "log", "ts":
  ..., "level": ..., "logger": ..., "event": ...}`` plus arbitrary
  structured fields, enriches it with the ambient recorder's
  correlation context when one is installed (``span`` id + name,
  parent span, ``sim_time``), writes it to every installed JSONL sink,
  and mirrors a human-readable line to stdlib :mod:`logging` so
  ``--log-level`` style configuration keeps working unchanged.
* :func:`add_log_sink` / :func:`jsonl_logging` install file sinks
  (the CLI's ``--log-jsonl PATH`` flag is a thin wrapper).
* :func:`validate_log_file` is the matching validator, same contract
  as ``validate_metrics_file`` and friends: returns the record count,
  raises ``ValueError`` on the first malformed line.

Events are named ``<area>.<what_happened>`` (``cache.corrupt_entry``,
``sink.recovered_torn_tail``, ``campaign.cell.quarantined``): stable
identifiers for filtering, with the variable detail in fields, never
interpolated into the event name.

With no sinks installed and no recorder active the cost is one
``isEnabledFor`` check per call -- operational events are rare
(corruption, quarantine, recovery), so this sits nowhere near the
no-op overhead budget.
"""

from __future__ import annotations

import logging
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, List, Union

from repro.obs.http import json_ready
from repro.obs.recorder import get_recorder
from repro.records import append_record, iter_records, seal

#: Record discriminator, alongside "metric" etc. in mixed JSONL files.
LOG_RECORD_TYPE = "log"

#: Levels a structured record may carry, with their stdlib equivalents.
LOG_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "error": logging.ERROR,
    "critical": logging.CRITICAL,
}

_sinks_lock = threading.Lock()
_sinks: List["LogSink"] = []


class LogSink:
    """One open JSONL destination; closing it deregisters it."""

    def __init__(self, path: Union[str, Path]) -> None:
        self._path = Path(path)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        seal(self._path)  # a torn earlier append must not swallow ours
        self._handle = open(self._path, "ab")
        self._lock = threading.Lock()

    @property
    def path(self) -> Path:
        return self._path

    def write(self, record: dict) -> None:
        with self._lock:
            if not self._handle.closed:
                append_record(self._handle, record)

    def close(self) -> None:
        with _sinks_lock:
            if self in _sinks:
                _sinks.remove(self)
        with self._lock:
            if not self._handle.closed:
                self._handle.close()

    def __enter__(self) -> "LogSink":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self.close()
        return False


def add_log_sink(path: Union[str, Path]) -> LogSink:
    """Install a JSONL sink receiving every subsequent log record."""
    sink = LogSink(path)
    with _sinks_lock:
        _sinks.append(sink)
    return sink


@contextmanager
def jsonl_logging(path: Union[str, Path]) -> Iterator[LogSink]:
    """Scoped :func:`add_log_sink`: installed inside, closed on exit."""
    sink = add_log_sink(path)
    try:
        yield sink
    finally:
        sink.close()


def log_event(level: str, event: str, *, logger: str = "repro", **fields) -> dict:
    """Emit one structured record; returns it (tests assert on this).

    ``level`` must be one of :data:`LOG_LEVELS`; ``event`` is the
    stable ``<area>.<what>`` identifier; ``fields`` carry the
    structured detail (made JSON-safe, so non-finite floats survive
    the round trip the same way metric records do).
    """
    if level not in LOG_LEVELS:
        raise ValueError(
            f"unknown log level {level!r}; expected one of "
            f"{sorted(LOG_LEVELS)}"
        )
    record = {
        "record": LOG_RECORD_TYPE,
        "ts": time.time(),
        "level": level,
        "logger": logger,
        "event": event,
    }
    recorder = get_recorder()
    if recorder.enabled:
        if recorder.sim_time is not None:
            record["sim_time"] = recorder.sim_time
        span = recorder.current_span()
        if span is not None:
            record["span"] = span.span_id
            record["span_name"] = span.name
            if span.parent_id is not None:
                record["parent_span"] = span.parent_id
    for key, value in fields.items():
        record[key] = json_ready(value)

    with _sinks_lock:
        sinks = list(_sinks)
    for sink in sinks:
        sink.write(record)

    std = logging.getLogger(logger)
    if std.isEnabledFor(LOG_LEVELS[level]):
        detail = " ".join(
            f"{key}={record[key]!r}" for key in fields if key in record
        )
        std.log(
            LOG_LEVELS[level], "%s", f"{event} {detail}".rstrip()
        )
    return record


class StructuredLogger:
    """A logger-name-bound convenience facade over :func:`log_event`."""

    def __init__(self, name: str) -> None:
        self._name = name

    @property
    def name(self) -> str:
        return self._name

    def debug(self, event: str, **fields) -> dict:
        return log_event("debug", event, logger=self._name, **fields)

    def info(self, event: str, **fields) -> dict:
        return log_event("info", event, logger=self._name, **fields)

    def warning(self, event: str, **fields) -> dict:
        return log_event("warning", event, logger=self._name, **fields)

    def error(self, event: str, **fields) -> dict:
        return log_event("error", event, logger=self._name, **fields)


def get_logger(name: str) -> StructuredLogger:
    """The structured counterpart of ``logging.getLogger(name)``."""
    return StructuredLogger(name)


def validate_log_file(path: Union[str, Path]) -> int:
    """Validate a JSONL log file; returns the record count.

    Same contract as the other ``validate_*_file`` exporter checks:
    every line must be a JSON object with ``record == "log"``, a known
    ``level``, and non-empty ``logger``/``event`` strings plus a
    numeric ``ts``.  Raises :class:`ValueError` on the first violation
    or if the file holds no records at all.
    """
    count = 0
    for lineno, record in iter_records(path):
        if record.get("record") != LOG_RECORD_TYPE:
            raise ValueError(
                f"{path}:{lineno}: record type "
                f"{record.get('record')!r}, expected {LOG_RECORD_TYPE!r}"
            )
        if record.get("level") not in LOG_LEVELS:
            raise ValueError(
                f"{path}:{lineno}: unknown level {record.get('level')!r}"
            )
        for key in ("logger", "event"):
            value = record.get(key)
            if not isinstance(value, str) or not value:
                raise ValueError(f"{path}:{lineno}: missing or empty {key!r}")
        if not isinstance(record.get("ts"), (int, float)):
            raise ValueError(f"{path}:{lineno}: missing numeric 'ts'")
        count += 1
    if count == 0:
        raise ValueError(f"{path}: no log records")
    return count


__all__ = [
    "LOG_LEVELS",
    "LOG_RECORD_TYPE",
    "LogSink",
    "StructuredLogger",
    "add_log_sink",
    "get_logger",
    "jsonl_logging",
    "log_event",
    "validate_log_file",
]
