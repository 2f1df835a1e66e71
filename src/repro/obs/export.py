"""Exporters: JSONL event logs, Chrome trace-event JSON, Prometheus text.

Three interchange formats cover the consumers we care about:

* **JSONL** (one JSON object per line) for regression tracking -- easy
  to diff, grep and load into pandas.  ``write_metrics_jsonl`` dumps the
  registry; ``write_events_jsonl`` interleaves span records too.
* **Chrome trace-event JSON** for humans -- the emitted file loads
  directly in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.
  Spans become complete (``"ph": "X"``) events with microsecond
  timestamps.
* **Prometheus text exposition** for scrape-style monitoring; metric
  names are sanitized to the Prometheus grammar
  (``[a-zA-Z_:][a-zA-Z0-9_:]*``).

``validate_trace_file``/``validate_metrics_file`` re-read what the
writers produced; CI runs them against the artifacts of an instrumented
demo + profile run so a formatting regression fails the build.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Dict, Iterator, List, Sequence

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.spans import Span
from repro.records import (
    PathLike,
    dumps_record,
    iter_records,
    read_document,
    write_atomic,
    write_lines,
)


_PROM_NAME = re.compile(r"[^a-zA-Z0-9_:]")
_PROM_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [^ ]+$"
)


def _json_safe(value):
    """Coerce one attribute/metric value into something JSON-clean."""
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)  # 'inf' / '-inf' / 'nan' as strings
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return repr(value)


# ----------------------------------------------------------------------
# Chrome trace-event format
# ----------------------------------------------------------------------

def chrome_trace(spans: Sequence[Span], pid: int = 1) -> Dict:
    """Spans as a Chrome trace-event document (JSON object format).

    Every span becomes one complete event; thread ids are preserved so
    multi-threaded runs render on separate tracks.
    """
    events: List[Dict] = []
    threads = sorted({s.thread_id for s in spans})
    tids = {thread: i + 1 for i, thread in enumerate(threads)}
    for tid in tids.values():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": f"thread-{tid}"},
            }
        )
    for span in spans:
        events.append(
            {
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "ts": round(span.start * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "pid": pid,
                "tid": tids[span.thread_id],
                "args": {
                    key: _json_safe(value)
                    for key, value in span.attributes.items()
                },
            }
        )
    return {"displayTimeUnit": "ms", "traceEvents": events}


def write_chrome_trace(path: PathLike, spans: Sequence[Span]) -> Path:
    """Write ``spans`` as a Perfetto-loadable trace file; returns the path."""
    return write_atomic(path, json.dumps(chrome_trace(spans)) + "\n")


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------

def metrics_jsonl_lines(registry: MetricsRegistry) -> Iterator[str]:
    """One JSON object per instrument (sorted by name)."""
    for name, record in registry.snapshot().items():
        payload = {"record": "metric", "name": name}
        for key, value in record.items():
            payload[key] = _json_safe(value) if key != "counts" else value
        yield dumps_record(payload)


def span_jsonl_lines(spans: Sequence[Span]) -> Iterator[str]:
    """One JSON object per finished span, in completion order."""
    for span in spans:
        yield dumps_record(
            {
                "record": "span",
                "id": span.span_id,
                "parent": span.parent_id,
                "name": span.name,
                "start": span.start,
                "duration": span.duration,
                "thread": span.thread_id,
                "attributes": {
                    key: _json_safe(value)
                    for key, value in span.attributes.items()
                },
            }
        )


def write_metrics_jsonl(path: PathLike, registry: MetricsRegistry) -> Path:
    """Dump the registry as JSONL; returns the path."""
    return write_lines(path, metrics_jsonl_lines(registry))


def write_events_jsonl(path: PathLike, recorder) -> Path:
    """Full event log: every span record followed by every metric record."""
    spans = span_jsonl_lines(recorder.tracer.finished())
    return write_lines(path, [*spans, *metrics_jsonl_lines(recorder.registry)])


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------

def sanitize_metric_name(name: str) -> str:
    """Map an internal dotted name onto the Prometheus grammar."""
    cleaned = _PROM_NAME.sub("_", name)
    if not cleaned or not (cleaned[0].isalpha() or cleaned[0] in "_:"):
        cleaned = "_" + cleaned
    return cleaned


def prometheus_text(registry: MetricsRegistry) -> str:
    """Registry in Prometheus text exposition format (version 0.0.4)."""
    out: List[str] = []
    for instrument in registry.instruments():
        name = sanitize_metric_name(instrument.name)
        if instrument.description:
            out.append(f"# HELP {name} {instrument.description}")
        out.append(f"# TYPE {name} {instrument.kind}")
        if isinstance(instrument, Counter):
            out.append(f"{name} {_format_value(instrument.value)}")
        elif isinstance(instrument, Gauge):
            out.append(f"{name} {_format_value(instrument.value)}")
        elif isinstance(instrument, Histogram):
            cumulative = instrument.cumulative_counts()
            for boundary, count in zip(instrument.boundaries, cumulative):
                out.append(
                    f'{name}_bucket{{le="{_format_value(boundary)}"}} {count}'
                )
            out.append(f'{name}_bucket{{le="+Inf"}} {cumulative[-1]}')
            out.append(f"{name}_sum {_format_value(instrument.sum)}")
            out.append(f"{name}_count {instrument.count}")
    return "\n".join(out) + ("\n" if out else "")


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def write_prometheus(path: PathLike, registry: MetricsRegistry) -> Path:
    """Write the Prometheus exposition to ``path``; returns the path."""
    return write_atomic(path, prometheus_text(registry))


# ----------------------------------------------------------------------
# Validators (used by tests and the CI telemetry step)
# ----------------------------------------------------------------------

def _trace_events(path: PathLike) -> List[dict]:
    """A trace-event document's events, each checked for ph/pid/name."""
    document = read_document(path)
    if not isinstance(document, dict) or "traceEvents" not in document:
        raise ValueError(f"{path}: not a trace-event document")
    for event in document["traceEvents"]:
        for key in ("ph", "pid", "name"):
            if key not in event:
                raise ValueError(f"{path}: event missing {key!r}: {event}")
    return document["traceEvents"]


def validate_trace_file(path: PathLike) -> int:
    """Check a Chrome trace file's shape; returns the span-event count.

    Raises ``ValueError`` on any malformed document or event, so CI can
    use it as an assertion.
    """
    spans = 0
    for event in _trace_events(path):
        if event["ph"] == "X":
            if "ts" not in event or "dur" not in event:
                raise ValueError(
                    f"{path}: complete event missing ts/dur: {event}"
                )
            spans += 1
    return spans


def validate_metrics_file(path: PathLike) -> int:
    """Check a metrics/events JSONL file; returns the record count."""
    records = 0
    for lineno, record in iter_records(path):
        if "record" not in record or "name" not in record:
            raise ValueError(
                f"{path}:{lineno}: missing 'record'/'name' keys"
            )
        records += 1
    if records == 0:
        raise ValueError(f"{path}: no records")
    return records


def validate_prometheus_text(text: str) -> int:
    """Check exposition-format grammar; returns the sample-line count."""
    samples = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line or line.startswith("#"):
            continue
        if not _PROM_LINE.match(line):
            raise ValueError(f"line {lineno} is not a valid sample: {line!r}")
        samples += 1
    return samples


__all__ = [
    "chrome_trace",
    "metrics_jsonl_lines",
    "span_jsonl_lines",
    "prometheus_text",
    "sanitize_metric_name",
    "write_chrome_trace",
    "write_events_jsonl",
    "write_metrics_jsonl",
    "write_prometheus",
    "validate_metrics_file",
    "validate_prometheus_text",
    "validate_trace_file",
]
