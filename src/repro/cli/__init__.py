"""Command-line interface: run the demo or any experiment.

Installed as ``repro-clocksync`` (see pyproject) and runnable as
``python -m repro.cli``::

    repro-clocksync list                 # show the experiment registry
    repro-clocksync demo                 # quickstart pipeline run
    repro-clocksync experiment E4        # full-size experiment
    repro-clocksync experiment E4 --quick
    repro-clocksync all --quick          # the entire suite
    repro-clocksync record out/          # simulate + archive system/trace
    repro-clocksync sync-trace out/system.json out/trace.json
    repro-clocksync profile E9 --quick   # run under full instrumentation
    repro-clocksync monitor bounded      # theorem-monitored demo workload
    repro-clocksync campaign --preset e9c --workers 4
    repro-clocksync campaign --preset e9c --shard 1/4 --resume
    repro-clocksync campaign --preset e9c --shard 1/2 --results-dir out/
    repro-clocksync campaign merge out/        # fuse shard streams
    repro-clocksync campaign status out/       # fleet health snapshot
    repro-clocksync campaign watch out/        # live fleet view
    repro-clocksync faults template plan.json   # fault-plan starting point
    repro-clocksync demo --faults plan.json     # chaos-mode quickstart
    repro-clocksync bench run --suite smoke --out bench.json
    repro-clocksync bench compare bench.json --tolerance ci
    repro-clocksync bench report --from bench.json
    repro-clocksync live smoke --peers 4 --queries 2000 --min-qps 1000
    repro-clocksync live smoke --probe-log-out probes.jsonl
    repro-clocksync live replay probes.jsonl    # offline half of the audit
    repro-clocksync serve --peers 4 --serve-metrics 9109

``campaign`` runs a preset sweep grid on the sharded campaign runner:
``--workers`` fans cells out over a process pool, ``--shard i/m`` runs
one deterministic slice of the grid (the union of all ``m`` shards is
the full sweep), and ``--cache-dir``/``--resume`` skip cells an earlier
run already solved.  ``--results-dir`` streams every completed cell to a
durable JSONL shard file as it finishes -- a killed invocation re-run
with the same ``--results-dir`` resumes from its last durable cell, and
``campaign merge DIR...`` fuses any number of shard streams back into
the canonical table (byte-identical to a single-process run), reporting
gaps, overlaps and grid mismatches.  ``experiment``, ``all`` and
``monitor`` also accept ``--workers``, which becomes the default for
every campaign the command runs (the ``REPRO_WORKERS`` environment
variable does the same process-wide).

Fleet telemetry (DESIGN.md section 12): every ``--results-dir`` run
maintains an atomic heartbeat sidecar next to its shard stream;
``campaign status DIR...`` fuses heartbeats + manifests into one
health table (exit 1 when any shard is stalled or dead, so CI can gate
on liveness) and ``campaign watch DIR...`` polls it live.  ``campaign
run --serve-metrics PORT`` additionally serves the run's registry at
``/metrics`` (Prometheus text format) and a heartbeat summary at
``/healthz`` from a stdlib HTTP sidecar thread; ``--log-jsonl PATH``
appends structured operational events (cache corruption, torn-tail
recovery, quarantines) as JSONL.

Every run subcommand accepts the observability flags ``--trace-out``
(Chrome trace-event JSON, loads in Perfetto / ``chrome://tracing``),
``--metrics-out`` (JSONL metrics dump), ``--flow-out`` (message-flow
trace: simulated-time flow events merged with the wall-clock spans) and
``--log-level``; ``--timings`` prints the engine's per-stage breakdown.
``profile`` enables the full recorder and prints a span-tree /
top-stages report.  ``monitor`` replays a workload through the online
synchronizer under the invariant monitors of :mod:`repro.obs.monitor`
and prints the simulated-time convergence table, per-link delay-estimate
error statistics and the violation summary (exit code is nonzero only
under ``--strict``).

Continuous benchmarking (DESIGN.md section 13): ``bench run`` measures
a registered workload suite (warmup/repeat/trim policy; wall + CPU time,
tracemalloc peaks, latency percentiles from the obs histograms) into a
schema'd, environment-fingerprinted report and appends it to the JSONL
history; ``bench compare`` diffs a report against the committed baseline
with noise-aware thresholds and exits nonzero on regression (the CI
``perf`` job gates on it); ``bench report`` renders the profiling view.

Fault injection (DESIGN.md section 10): ``faults`` writes or validates a
:mod:`repro.faults` plan file; ``demo``, ``monitor`` and ``campaign``
accept ``--faults PLAN.json`` to inject that plan into every simulated
run.  ``campaign`` additionally accepts ``--cell-timeout``/``--retries``
/``--retry-backoff``, which turn on the quarantine policy: failing
cells are retried and ultimately quarantined (and reported) instead of
aborting the sweep.

Live runtime (DESIGN.md section 14): ``live smoke`` boots a loopback
UDP cluster of asyncio probe peers plus a correction server, drives a
concurrent query load, and audits the replay-equality contract (every
live answer is byte-identical to the offline batch pipeline run on the
same probe-log cut); ``live replay LOG.jsonl`` is the offline half of
that audit on a recorded probe log; ``serve`` runs a foreground
correction server (``--serve-metrics PORT`` exposes its request-latency
histograms at ``/metrics`` and its ingest/fallback state at
``/healthz``).

This package splits the CLI into per-area modules -- ``experiments``,
``runs``, ``campaign``, ``monitor``, ``bench``, ``live`` -- that all
share one observability-flags options group (:mod:`repro.cli._options`).
``from repro.cli import build_parser, main`` keeps working unchanged.
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from repro.cli import bench as _bench
from repro.cli import campaign as _campaign
from repro.cli import experiments as _experiments
from repro.cli import live as _live
from repro.cli import monitor as _monitor
from repro.cli import runs as _runs


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro-clocksync",
        description="Optimal clock synchronization under different delay "
        "assumptions (Attiya, Herzberg & Rajsbaum, PODC 1993).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _experiments.register(sub)        # list, experiment, all
    _campaign.register(sub)           # campaign run/merge/status/watch
    _runs.register_demo(sub)          # demo
    _runs.register_faults(sub)        # faults
    _runs.register_record(sub)        # record
    _runs.register_sync_trace(sub)    # sync-trace
    _experiments.register_profile(sub)  # profile
    _bench.register(sub)              # bench run/compare/report
    _monitor.register(sub)            # monitor
    _live.register(sub)               # live smoke/replay
    _live.register_serve(sub)         # serve

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


__all__ = ["build_parser", "main"]
