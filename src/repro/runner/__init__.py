"""Sharded, streamed, parallel execution of campaign cells.

The runner layer is what makes sweeps scale: it knows nothing about
delay models or theorems, only about *cells* -- independent
(builder, topology, seed) work units -- and how to

* partition them deterministically into shards
  (:mod:`repro.runner.sharding`),
* skip solved ones via a content-addressed result cache
  (:mod:`repro.runner.cache`),
* fan the rest out over a process pool or run them inline, under one
  quarantine policy (:mod:`repro.runner.executor`),
* stream every completion to a durable, resumable JSONL shard
  (:mod:`repro.runner.sink`),
* fold cells settled in any order, and independently produced shards,
  into the canonical single-process view (:mod:`repro.runner.merge`),
* emit a liveness heartbeat sidecar next to every shard stream
  (:mod:`repro.runner.heartbeat`), and
* fuse manifests + heartbeats into a live fleet-health view with
  stall/death detection (:mod:`repro.runner.status`).

:mod:`repro.workloads.parallel` composes these into the campaign-facing
:func:`~repro.workloads.parallel.run_campaign`.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "CACHE_VERSION": "repro.runner.cache",
    "CampaignCell": "repro.runner.merge",
    "CampaignFold": "repro.runner.merge",
    "CellBuilder": "repro.runner.cells",
    "CellFailure": "repro.runner.executor",
    "CellOutcome": "repro.runner.cells",
    "CellResult": "repro.runner.cells",
    "CellSpec": "repro.runner.cells",
    "CellTask": "repro.runner.cells",
    "CellTimeoutError": "repro.runner.executor",
    "DEFAULT_HEARTBEAT_INTERVAL": "repro.runner.heartbeat",
    "DEFAULT_STALL_AFTER": "repro.runner.status",
    "FleetStatus": "repro.runner.status",
    "HEARTBEAT_VERSION": "repro.runner.heartbeat",
    "Heartbeat": "repro.runner.heartbeat",
    "HeartbeatWriter": "repro.runner.heartbeat",
    "MANIFEST_VERSION": "repro.runner.sink",
    "MergeError": "repro.runner.merge",
    "MergeReport": "repro.runner.merge",
    "MergedCampaign": "repro.runner.merge",
    "ResultCache": "repro.runner.cache",
    "ResultSink": "repro.runner.sink",
    "STATE_COMPLETE": "repro.runner.status",
    "STATE_DEAD": "repro.runner.status",
    "STATE_RUNNING": "repro.runner.status",
    "STATE_STALLED": "repro.runner.status",
    "STATE_UNKNOWN": "repro.runner.status",
    "Shard": "repro.runner.sharding",
    "ShardStatus": "repro.runner.status",
    "ShardRecords": "repro.runner.sink",
    "WORKERS_ENV": "repro.runner.executor",
    "cell_cache_key": "repro.runner.cache",
    "collect_fleet_status": "repro.runner.status",
    "decode_stream": "repro.runner.sink",
    "default_workers": "repro.runner.executor",
    "execute_cell": "repro.runner.cells",
    "execute_cells": "repro.runner.executor",
    "filter_shard": "repro.runner.sharding",
    "find_manifests": "repro.runner.merge",
    "fleet_status_lines": "repro.runner.status",
    "grid_fingerprint": "repro.runner.sink",
    "guard_cell": "repro.runner.executor",
    "heartbeat_path": "repro.runner.heartbeat",
    "in_shard": "repro.runner.sharding",
    "load_manifest": "repro.runner.sink",
    "merge_shards": "repro.runner.merge",
    "parse_shard": "repro.runner.sharding",
    "read_heartbeat": "repro.runner.heartbeat",
    "read_stream_records": "repro.runner.sink",
    "shard_status": "repro.runner.status",
    "resolve_workers": "repro.runner.executor",
    "set_default_workers": "repro.runner.executor",
    "shard_index": "repro.runner.sharding",
    "validate_cell_results_file": "repro.runner.cells",
    "write_cell_results_jsonl": "repro.runner.cells",
}

__all__ = [*_EXPORTS]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
