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
* fuse independently produced shards back into the canonical
  single-process view (:mod:`repro.runner.merge`),
* emit a liveness heartbeat sidecar next to every shard stream
  (:mod:`repro.runner.heartbeat`), and
* fuse manifests + heartbeats into a live fleet-health view with
  stall/death detection (:mod:`repro.runner.status`).

:mod:`repro.workloads.parallel` composes these into the campaign-facing
:func:`~repro.workloads.parallel.run_campaign`.
"""

from repro.runner.cache import CACHE_VERSION, ResultCache, cell_cache_key
from repro.runner.cells import (
    CellBuilder,
    CellOutcome,
    CellResult,
    CellSpec,
    CellTask,
    execute_cell,
    validate_cell_results_file,
    write_cell_results_jsonl,
)
from repro.runner.executor import (
    CellFailure,
    CellTimeoutError,
    WORKERS_ENV,
    default_workers,
    execute_cells,
    guard_cell,
    resolve_workers,
    set_default_workers,
)
from repro.runner.heartbeat import (
    DEFAULT_HEARTBEAT_INTERVAL,
    HEARTBEAT_VERSION,
    Heartbeat,
    HeartbeatWriter,
    heartbeat_path,
    read_heartbeat,
)
from repro.runner.merge import (
    MergeError,
    MergeReport,
    MergedCampaign,
    find_manifests,
    merge_shards,
)
from repro.runner.sharding import (
    Shard,
    filter_shard,
    in_shard,
    parse_shard,
    shard_index,
)
from repro.runner.status import (
    DEFAULT_STALL_AFTER,
    FleetStatus,
    STATE_COMPLETE,
    STATE_DEAD,
    STATE_RUNNING,
    STATE_STALLED,
    STATE_UNKNOWN,
    ShardStatus,
    collect_fleet_status,
    fleet_status_lines,
    shard_status,
)
from repro.runner.sink import (
    MANIFEST_VERSION,
    ResultSink,
    SinkRecovery,
    grid_fingerprint,
    read_stream_records,
)

__all__ = [
    "CACHE_VERSION",
    "CellBuilder",
    "CellFailure",
    "CellOutcome",
    "CellResult",
    "CellSpec",
    "CellTask",
    "CellTimeoutError",
    "DEFAULT_HEARTBEAT_INTERVAL",
    "DEFAULT_STALL_AFTER",
    "FleetStatus",
    "HEARTBEAT_VERSION",
    "Heartbeat",
    "HeartbeatWriter",
    "MANIFEST_VERSION",
    "MergeError",
    "MergeReport",
    "MergedCampaign",
    "ResultCache",
    "ResultSink",
    "STATE_COMPLETE",
    "STATE_DEAD",
    "STATE_RUNNING",
    "STATE_STALLED",
    "STATE_UNKNOWN",
    "Shard",
    "ShardStatus",
    "SinkRecovery",
    "WORKERS_ENV",
    "cell_cache_key",
    "collect_fleet_status",
    "default_workers",
    "execute_cell",
    "execute_cells",
    "filter_shard",
    "find_manifests",
    "fleet_status_lines",
    "grid_fingerprint",
    "guard_cell",
    "heartbeat_path",
    "in_shard",
    "merge_shards",
    "parse_shard",
    "read_heartbeat",
    "read_stream_records",
    "shard_status",
    "resolve_workers",
    "set_default_workers",
    "shard_index",
    "validate_cell_results_file",
    "write_cell_results_jsonl",
]
