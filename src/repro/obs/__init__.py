"""Unified observability: spans, metrics, and exportable run telemetry.

One measurement plane for the whole reproduction -- simulator, the
GLOBAL ESTIMATES -> SHIFTS pipeline, the online synchronizer and the
matrix engines all report into the same recorder:

* :mod:`repro.obs.spans` -- nested timed regions with attributes,
  thread-safe and contextvar-propagated;
* :mod:`repro.obs.metrics` -- counters, gauges and fixed-bucket
  histograms (no wall-clock or RNG in the data path);
* :mod:`repro.obs.recorder` -- the facade instrumented code talks to;
  the module-level default is a no-op whose disabled path costs one
  attribute lookup;
* :mod:`repro.obs.export` -- JSONL event logs, Chrome trace-event JSON
  (loads in Perfetto / ``chrome://tracing``) and Prometheus text
  exposition, plus validators CI runs against emitted artifacts;
* :mod:`repro.obs.report` -- span-tree / top-stages reports backing
  ``repro-clocksync profile``;
* :mod:`repro.obs.flow` -- message causality tracing: per-message
  lifecycle records with real vs estimated delay, Chrome *flow* events
  and a causal-DAG JSONL;
* :mod:`repro.obs.timeline` -- series sampled against *simulated* time
  (online convergence, per-processor corrections);
* :mod:`repro.obs.monitor` -- passive invariant monitors checking every
  synchronization result against the paper's theorems;
* :mod:`repro.obs.http` -- a stdlib HTTP sidecar serving ``/metrics``
  (Prometheus 0.0.4) and ``/healthz`` from the live registry;
* :mod:`repro.obs.log` -- structured JSONL logging with span/sim-time
  correlation, replacing ad-hoc warnings in the runner/faults paths;
* :mod:`repro.obs.memory` -- peak-memory observability: scoped
  tracemalloc peaks + the process RSS high-water mark, surfaced as
  ``process.*`` gauges by ``profile`` and the bench harness.

Quickstart::

    from repro.obs import recording, write_chrome_trace

    with recording() as rec:
        result = ClockSynchronizer(system).from_execution(alpha)
    write_chrome_trace("trace.json", rec.tracer.finished())

See DESIGN.md sections 7 (spans/metrics) and 8 (protocol telemetry).
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "DEFAULT_BUCKETS": "repro.obs.metrics",
    "Counter": "repro.obs.metrics",
    "Gauge": "repro.obs.metrics",
    "Histogram": "repro.obs.metrics",
    "MetricsRegistry": "repro.obs.metrics",
    "merge_all": "repro.obs.metrics",
    "registry_from_snapshot": "repro.obs.metrics",
    "NOOP": "repro.obs.recorder",
    "NoopRecorder": "repro.obs.recorder",
    "Recorder": "repro.obs.recorder",
    "get_recorder": "repro.obs.recorder",
    "recording": "repro.obs.recorder",
    "set_recorder": "repro.obs.recorder",
    "Span": "repro.obs.spans",
    "Tracer": "repro.obs.spans",
    "chrome_trace": "repro.obs.export",
    "prometheus_text": "repro.obs.export",
    "write_chrome_trace": "repro.obs.export",
    "write_events_jsonl": "repro.obs.export",
    "write_metrics_jsonl": "repro.obs.export",
    "write_prometheus": "repro.obs.export",
    "validate_metrics_file": "repro.obs.export",
    "validate_prometheus_text": "repro.obs.export",
    "validate_trace_file": "repro.obs.export",
    "aggregate_spans": "repro.obs.report",
    "format_span_tree": "repro.obs.report",
    "histogram_quantiles_table": "repro.obs.report",
    "key_metrics_table": "repro.obs.report",
    "quantile": "repro.obs.report",
    "top_stages_table": "repro.obs.report",
    "EdgeErrorStats": "repro.obs.flow",
    "FlowLog": "repro.obs.flow",
    "FlowRecord": "repro.obs.flow",
    "chrome_flow_events": "repro.obs.flow",
    "validate_flow_trace_file": "repro.obs.flow",
    "write_causal_dag": "repro.obs.flow",
    "write_flow_trace": "repro.obs.flow",
    "PROMETHEUS_CONTENT_TYPE": "repro.obs.http",
    "TelemetryServer": "repro.obs.http",
    "serve_telemetry": "repro.obs.http",
    "PEAK_RSS_GAUGE": "repro.obs.memory",
    "TRACEMALLOC_PEAK_GAUGE": "repro.obs.memory",
    "TracemallocPeak": "repro.obs.memory",
    "format_bytes": "repro.obs.memory",
    "process_peak_rss_bytes": "repro.obs.memory",
    "record_memory_gauges": "repro.obs.memory",
    "LOG_LEVELS": "repro.obs.log",
    "LOG_RECORD_TYPE": "repro.obs.log",
    "LogSink": "repro.obs.log",
    "StructuredLogger": "repro.obs.log",
    "add_log_sink": "repro.obs.log",
    "get_logger": "repro.obs.log",
    "jsonl_logging": "repro.obs.log",
    "log_event": "repro.obs.log",
    "validate_log_file": "repro.obs.log",
    "ConvergenceSample": "repro.obs.timeline",
    "MonitorSuite": "repro.obs.monitor",
    "MonitorViolationError": "repro.obs.monitor",
    "ReplayResult": "repro.obs.timeline",
    "Series": "repro.obs.timeline",
    "Timeline": "repro.obs.timeline",
    "Violation": "repro.obs.monitor",
    "default_monitors": "repro.obs.monitor",
    "replay_online": "repro.obs.timeline",
    "timeline_jsonl_lines": "repro.obs.timeline",
    "validate_timeline_file": "repro.obs.timeline",
    "write_timeline_jsonl": "repro.obs.timeline",
}

__all__ = [*_EXPORTS]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
