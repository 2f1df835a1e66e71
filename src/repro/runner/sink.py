"""Streaming result sink: durable JSONL shards + resume manifests.

The fleet-scale seam of the runner stack.  A campaign that must scale to
10^5+ cells cannot hold every :class:`~repro.runner.cells.CellResult`
(plus its metrics snapshot) in memory, and a shard that dies at cell
40,000 cannot afford to redo the first 39,999.  The sink solves both
with one mechanism: every completed cell is appended -- immediately,
fsync'd -- to an append-only JSONL *shard stream*, and a *shard
manifest* pins down what grid the stream belongs to.

File layout (one pair per ``--shard i/m`` invocation, in the campaign's
``results_dir``)::

    shard-1-of-2.jsonl      # one record per completed cell, append-only
    manifest-1-of-2.json    # grid fingerprint + completion markers

Record types in the stream:

* ``campaign.cell`` -- a :meth:`CellResult.to_json` record, extended
  with the cell's canonical grid ``index`` and (for executed cells) its
  per-cell ``metrics`` snapshot.  One line per cell, written atomically
  *after* the cell completed: a line's presence is the cell's durable
  completion marker.
* ``campaign.cell.failure`` -- a quarantined
  :class:`~repro.runner.executor.CellFailure`, same ``index`` key.

Crash tolerance follows :mod:`repro.records`: :meth:`ResultSink.begin`
truncates the stream from its first bad line or torn tail on and hands
back the durably completed cells, so the runner re-executes only what
was actually lost -- on top of (not instead of) the result cache.

This module owns the shard format: :func:`load_manifest` is the one
manifest reader and :func:`decode_stream` the one record decoder, so
resume, merge and status cannot disagree about what a shard holds.

The manifest carries the ``grid_fingerprint`` (a sha256 over the *full*
canonical grid, not just this shard's slice), the shard's own cell
indices, and -- once :meth:`ResultSink.close` ran -- per-cell result
fingerprints.  The merge pipeline (:mod:`repro.runner.merge`) uses it
to refuse mixing shards of different grids and to report gaps and
overlaps against the declared grid.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.export import _json_safe
from repro.obs.log import get_logger
from repro.records import append_record, read_prefix, seal, write_atomic
from repro.runner.cells import CellResult
from repro.runner.executor import CellFailure

log = get_logger("repro.runner.sink")

#: (builder, topology name, seed) -- the canonical cell identity, same
#: shape as :attr:`repro.runner.cells.CellSpec.key`.
CellKey = Tuple[str, str, int]

#: Bump on any incompatible change to the manifest or record layout.
MANIFEST_VERSION = 1


def grid_fingerprint(grid: Sequence[CellKey]) -> str:
    """A sha256 digest of the full campaign grid, order included.

    Two invocations agree on this iff they were built from the same
    builders x topologies x seeds in the same canonical order -- the
    precondition for their shard streams to be mergeable.
    """
    payload = json.dumps(
        [[builder, topology, seed] for builder, topology, seed in grid]
    ).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


#: ``(records, valid_bytes)`` of a shard stream up to its first bad line
#: or torn tail (``valid_bytes == file size``: clean).  Read-only; the
#: sink's own recovery additionally truncates at ``valid_bytes``.
read_stream_records = read_prefix


def load_manifest(path: Union[str, Path]) -> dict:
    """Read and validate one shard manifest.

    Raises ``ValueError`` when the file cannot be read or parsed, is not
    a shard manifest, or has another :data:`MANIFEST_VERSION`.
    """
    path = Path(path)
    try:
        manifest = json.loads(path.read_text())
    except (ValueError, OSError) as exc:
        raise ValueError(f"unreadable shard manifest {path}: {exc}") from exc
    if (
        not isinstance(manifest, dict)
        or manifest.get("type") != "campaign.shard.manifest"
    ):
        raise ValueError(f"{path} is not a shard manifest")
    if manifest.get("version") != MANIFEST_VERSION:
        raise ValueError(
            f"{path} has manifest version {manifest.get('version')!r}, "
            f"expected {MANIFEST_VERSION}"
        )
    return manifest


@dataclass
class ShardRecords:
    """What one shard stream holds, keyed by canonical grid index.

    ``metrics`` holds the cells' registry snapshots (``None`` for
    cache-restored cells, which never ran), so a resumed run or a merge
    rebuilds the campaign registry exactly as the uninterrupted run
    would have.  ``bad`` maps an index whose last record could not be
    decoded to the decoding error.  ``truncated_bytes`` is the torn tail
    :meth:`ResultSink.begin` cut off (0 for read-only decoding).
    """

    results: Dict[int, CellResult] = field(default_factory=dict)
    metrics: Dict[int, Optional[dict]] = field(default_factory=dict)
    failures: Dict[int, CellFailure] = field(default_factory=dict)
    bad: Dict[int, str] = field(default_factory=dict)
    truncated_bytes: int = 0

    @property
    def cells(self) -> int:
        return len(self.results) + len(self.failures)


def decode_stream(records: Sequence[dict], grid_size: int) -> ShardRecords:
    """Decode one stream's records; the one rule resume and merge share.

    * records without an in-range ``index`` or of another type are
      ignored (foreign or stale);
    * a later record for an index wins, except that a failure after a
      success is ignored (a success supersedes an earlier failure);
    * an undecodable record marks its index ``bad`` until a later good
      record for the same index arrives.
    """
    decoded = ShardRecords()
    for record in records:
        index = record.get("index")
        if not isinstance(index, int) or not 0 <= index < grid_size:
            continue
        kind = record.get("type")
        if kind not in ("campaign.cell", "campaign.cell.failure") or (
            kind == "campaign.cell.failure" and index in decoded.results
        ):
            continue
        decoded.results.pop(index, None)
        decoded.metrics.pop(index, None)
        decoded.failures.pop(index, None)
        decoded.bad.pop(index, None)
        try:
            if kind == "campaign.cell":
                decoded.results[index] = CellResult.from_json(record)
                decoded.metrics[index] = record.get("metrics")
            else:
                decoded.failures[index] = CellFailure.from_json(record)
        except (ValueError, KeyError, TypeError) as exc:
            decoded.bad[index] = f"bad {kind} record for index {index}: {exc}"
    return decoded


class ResultSink:
    """Append-only JSONL destination for one shard's cell stream.

    Usage (what :func:`~repro.workloads.parallel.run_campaign` does)::

        sink = ResultSink(results_dir, shard=(1, 2))
        recovery = sink.begin(grid_keys, own_indices)
        ...                       # skip recovery.results, run the rest
        sink.append_result(i, result, metrics=snapshot)   # per cell
        sink.close()              # finalize the manifest

    The sink also keeps the campaign's *resident high-water mark*: the
    runner reports how many ``CellResult`` objects it is holding at
    each completion via :meth:`note_resident`, and bounded-memory runs
    assert the maximum stayed O(1) in the grid size.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        shard: Optional[Tuple[int, int]] = None,
    ) -> None:
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        self._shard = (1, 1) if shard is None else (int(shard[0]), int(shard[1]))
        index, count = self._shard
        if not 1 <= index <= count:
            raise ValueError(f"invalid shard {index}/{count}")
        stem = f"{index}-of-{count}"
        self._data_path = self._directory / f"shard-{stem}.jsonl"
        self._manifest_path = self._directory / f"manifest-{stem}.json"
        self._handle = None
        self._grid: List[CellKey] = []
        self._own: List[int] = []
        self._fingerprint = ""
        self._completed: Dict[int, Any] = {}
        self._high_water = 0
        self._recovered = 0

    # -- paths & counters -------------------------------------------------

    @property
    def directory(self) -> Path:
        return self._directory

    @property
    def data_path(self) -> Path:
        return self._data_path

    @property
    def manifest_path(self) -> Path:
        return self._manifest_path

    @property
    def shard(self) -> Tuple[int, int]:
        return self._shard

    @property
    def resident_high_water(self) -> int:
        """Max simultaneously-held CellResult count the runner reported."""
        return self._high_water

    @property
    def recovered(self) -> int:
        """Cells restored from the stream by :meth:`begin` (this session)."""
        return self._recovered

    def note_resident(self, count: int) -> None:
        """Record the runner's current in-memory ``CellResult`` count."""
        if count > self._high_water:
            self._high_water = count

    # -- lifecycle ---------------------------------------------------------

    def begin(
        self, grid: Sequence[CellKey], own: Sequence[int]
    ) -> ShardRecords:
        """Open the shard stream, resuming from durable state if present.

        ``grid`` is the *full* campaign grid in canonical order;
        ``own`` the indices this shard executes.  An existing manifest
        for a *different* grid is refused (``ValueError``) -- silently
        mixing grids is exactly the corruption the fingerprint exists
        to prevent.  A stream without a manifest is discarded: its
        provenance is unknowable.
        """
        if self._handle is not None:
            raise RuntimeError("sink already begun")
        self._grid = [
            (builder, topology, int(seed)) for builder, topology, seed in grid
        ]
        self._own = sorted(int(i) for i in own)
        self._fingerprint = grid_fingerprint(self._grid)

        recovery = ShardRecords()
        if self._manifest_path.exists():
            manifest = load_manifest(self._manifest_path)
            if manifest["grid_fingerprint"] != self._fingerprint:
                raise ValueError(
                    f"{self._manifest_path} was written for a different "
                    f"campaign grid (fingerprint "
                    f"{manifest['grid_fingerprint'][:12]}... != "
                    f"{self._fingerprint[:12]}...); refusing to resume -- "
                    f"use a fresh results_dir per grid"
                )
            recovery = self._recover()
        else:
            self._data_path.unlink(missing_ok=True)

        self._write_manifest(complete=False)
        self._handle = open(self._data_path, "ab")
        return recovery

    def _recover(self) -> ShardRecords:
        records, valid = read_prefix(self._data_path)
        truncated = seal(self._data_path, valid)
        if truncated:
            log.warning(
                "sink.recovered_torn_tail",
                stream=str(self._data_path),
                truncated_bytes=truncated,
                valid_bytes=valid,
            )
        # A ``bad`` index is not recovered: the runner re-executes it,
        # and the fresh record it appends supersedes the bad one.
        recovery = decode_stream(records, len(self._grid))
        recovery.truncated_bytes = truncated
        for index, result in recovery.results.items():
            self._completed[index] = list(_fingerprint_json(result))
        for index in recovery.failures:
            self._completed[index] = "quarantined"
        self._recovered = recovery.cells
        return recovery

    def append_result(
        self,
        index: int,
        result: CellResult,
        metrics: Optional[dict] = None,
    ) -> None:
        """Durably persist one completed cell (+ its metrics snapshot)."""
        record = result.to_json()
        record["index"] = index
        if metrics is not None:
            record["metrics"] = metrics
        self._append(record)
        self._completed[index] = list(_fingerprint_json(result))

    def append_failure(self, index: int, failure: CellFailure) -> None:
        """Durably persist one quarantined cell."""
        record = failure.to_json()
        record["index"] = index
        self._append(record)
        self._completed.setdefault(index, "quarantined")

    def _append(self, record: dict) -> None:
        if self._handle is None:
            raise RuntimeError("sink not begun (call begin() first)")
        append_record(self._handle, record)

    def close(self) -> Path:
        """Flush, finalize the manifest (completion markers), return it."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        self._write_manifest(complete=True)
        return self._manifest_path

    def __enter__(self) -> "ResultSink":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        self.close()
        return False

    def _write_manifest(self, complete: bool) -> None:
        manifest = {
            "type": "campaign.shard.manifest",
            "version": MANIFEST_VERSION,
            "shard": list(self._shard),
            "grid_fingerprint": self._fingerprint,
            "grid": [list(key) for key in self._grid],
            "own": self._own,
            "data": self._data_path.name,
            "complete": complete,
            # Last-update stamps on *every* atomic replace: the stall
            # detector's fallback when no heartbeat sidecar exists.
            # Wall clock for cross-machine readers, monotonic for
            # same-machine readers that must survive clock steps.
            "updated_at": time.time(),
            "updated_monotonic": time.monotonic(),
            "completed": {
                str(index): marker
                for index, marker in sorted(self._completed.items())
            },
        }
        # Atomic replace: a crash mid-write must never leave a torn
        # manifest next to a good stream.
        write_atomic(self._manifest_path, json.dumps(manifest, sort_keys=True))


def _fingerprint_json(result: CellResult) -> Tuple[Any, ...]:
    """The result fingerprint with JSON-safe floats ('inf' as string)."""
    return tuple(_json_safe(part) for part in result.fingerprint())


__all__ = [
    "CellKey",
    "MANIFEST_VERSION",
    "ResultSink",
    "ShardRecords",
    "decode_stream",
    "grid_fingerprint",
    "load_manifest",
    "read_stream_records",
]
