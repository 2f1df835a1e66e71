"""The shard merge pipeline: fuse N shard streams into one campaign.

Each ``--shard i/m`` invocation of a campaign leaves behind a JSONL
stream plus a manifest (see :mod:`repro.runner.sink`).  This module
fuses any number of them back into the canonical single-process view:

* results in canonical grid order (builders outer, topologies inner,
  seeds innermost) -- so a table built from them is byte-identical to
  one from an unsharded :func:`~repro.workloads.parallel.run_campaign`;
* one merged :class:`~repro.obs.metrics.MetricsRegistry`, folded from
  the per-cell snapshots *in grid order* (gauges are last-write-wins,
  so merge order is part of the determinism contract);
* a :class:`MergeReport` of everything that does not add up: **gaps**
  (grid cells no stream covers), **overlaps** (cells covered by more
  than one stream -- benign when the duplicate results agree) and
  **conflicts** (duplicates that *disagree*, which means the shards
  did not actually run the same campaign).

Shards of different grids never merge: every manifest carries the full
grid fingerprint and a mismatch raises :class:`MergeError` outright.
Quarantined cells (durable ``campaign.cell.failure`` records) are
reported separately from gaps -- a known failure is not missing data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.metrics import MetricsRegistry
from repro.runner.cells import CellResult
from repro.runner.executor import CellFailure
from repro.runner.sink import (
    CellKey,
    MANIFEST_VERSION,
    read_stream_records,
)


class MergeError(ValueError):
    """The shard set cannot be fused (grid mismatch, bad manifest, ...)."""


@dataclass
class MergeReport:
    """What the merge found, beyond the fused data itself."""

    sources: List[str] = field(default_factory=list)
    cells: int = 0
    gaps: List[CellKey] = field(default_factory=list)
    overlaps: List[CellKey] = field(default_factory=list)
    conflicts: List[CellKey] = field(default_factory=list)
    quarantined: int = 0

    @property
    def complete(self) -> bool:
        """Every grid cell accounted for and no two shards disagree."""
        return not self.gaps and not self.conflicts

    def lines(self) -> List[str]:
        """Human-readable report (CLI output)."""
        out = [
            f"merged {self.cells} cells from {len(self.sources)} shard(s)"
        ]
        if self.quarantined:
            out.append(f"quarantined: {self.quarantined}")
        for label, keys in (
            ("gap", self.gaps),
            ("overlap", self.overlaps),
            ("conflict", self.conflicts),
        ):
            for builder, topology, seed in keys:
                out.append(f"{label}: {builder}:{topology} seed={seed}")
        if self.complete:
            out.append("merge complete: no gaps, no conflicts")
        return out

    def to_json(self) -> dict:
        return {
            "type": "campaign.merge.report",
            "sources": self.sources,
            "cells": self.cells,
            "gaps": [list(k) for k in self.gaps],
            "overlaps": [list(k) for k in self.overlaps],
            "conflicts": [list(k) for k in self.conflicts],
            "quarantined": self.quarantined,
            "complete": self.complete,
        }


@dataclass
class MergedCampaign:
    """The fused, canonical-order view of a sharded campaign."""

    results: Tuple[CellResult, ...]
    failures: Tuple[CellFailure, ...]
    registry: MetricsRegistry
    grid: List[CellKey]
    report: MergeReport

    @property
    def seeds_per_cell(self) -> int:
        """Distinct seeds per (builder, topology) -- for table titles."""
        return len({seed for _, _, seed in self.grid}) or 1


def find_manifests(paths: Sequence[Union[str, Path]]) -> List[Path]:
    """Resolve directories/files into the manifest files they contain."""
    manifests: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            found = sorted(path.glob("manifest-*-of-*.json"))
            if not found:
                raise MergeError(f"no shard manifests in {path}")
            manifests.extend(found)
        elif path.is_file():
            manifests.append(path)
        else:
            raise MergeError(f"no such shard source: {path}")
    if not manifests:
        raise MergeError("no shard manifests given")
    return manifests


def _load_manifest(path: Path) -> dict:
    try:
        manifest = json.loads(path.read_text())
    except (ValueError, OSError) as exc:
        raise MergeError(f"unreadable manifest {path}: {exc}") from exc
    if (
        not isinstance(manifest, dict)
        or manifest.get("type") != "campaign.shard.manifest"
    ):
        raise MergeError(f"{path} is not a shard manifest")
    if manifest.get("version") != MANIFEST_VERSION:
        raise MergeError(
            f"{path}: manifest version {manifest.get('version')!r}, "
            f"expected {MANIFEST_VERSION}"
        )
    return manifest


def merge_shards(
    paths: Sequence[Union[str, Path]],
    strict: bool = False,
) -> MergedCampaign:
    """Fuse shard streams (given as dirs or manifest paths); see module doc.

    With ``strict=True``, an incomplete merge (gaps or conflicts) raises
    :class:`MergeError` instead of returning a report to inspect.
    """
    manifest_paths = find_manifests(paths)
    manifests = [(p, _load_manifest(p)) for p in manifest_paths]

    _, first = manifests[0]
    fingerprint = first["grid_fingerprint"]
    for path, manifest in manifests[1:]:
        if manifest["grid_fingerprint"] != fingerprint:
            raise MergeError(
                f"{path} belongs to a different campaign grid "
                f"(fingerprint {manifest['grid_fingerprint'][:12]}... != "
                f"{fingerprint[:12]}...); shards of different grids "
                f"cannot be merged"
            )
    grid: List[CellKey] = [
        (builder, topology, int(seed))
        for builder, topology, seed in first["grid"]
    ]

    report = MergeReport(sources=[str(p) for p in manifest_paths])
    results: Dict[int, CellResult] = {}
    metrics: Dict[int, Optional[dict]] = {}
    failures: Dict[int, CellFailure] = {}
    seen_in: Dict[int, int] = {}  # index -> number of sources covering it

    for path, manifest in manifests:
        stream = path.parent / manifest["data"]
        records, _ = read_stream_records(stream)
        covered: set = set()
        for record in records:
            index = record.get("index")
            if not isinstance(index, int) or not 0 <= index < len(grid):
                continue
            kind = record.get("type")
            if kind == "campaign.cell":
                try:
                    result = CellResult.from_json(record)
                except (ValueError, KeyError, TypeError) as exc:
                    raise MergeError(
                        f"{stream}: bad cell record for index {index}: {exc}"
                    ) from exc
                previous = results.get(index)
                if previous is not None and index not in covered:
                    if previous.fingerprint() != result.fingerprint():
                        report.conflicts.append(grid[index])
                        continue  # keep the first; flag the disagreement
                results[index] = result
                metrics[index] = record.get("metrics")
                failures.pop(index, None)
                covered.add(index)
            elif kind == "campaign.cell.failure":
                if index not in results:
                    failures[index] = CellFailure.from_json(record)
                covered.add(index)
        for index in covered:
            seen_in[index] = seen_in.get(index, 0) + 1

    for index, count in sorted(seen_in.items()):
        if count > 1 and grid[index] not in report.conflicts:
            report.overlaps.append(grid[index])
    report.gaps = [
        grid[index]
        for index in range(len(grid))
        if index not in results and index not in failures
    ]
    report.cells = len(results)
    report.quarantined = len(failures)

    # Metrics fold in canonical grid order: gauges are last-write-wins,
    # so this is what makes the merged registry match the unsharded run.
    registry = MetricsRegistry()
    executed = 0
    for index in sorted(results):
        snapshot = metrics.get(index)
        if snapshot:
            registry.merge_snapshot(snapshot)
            executed += 1
    # Progress metrics are gauges (point-in-time truths, set not
    # summed), matching what run_campaign and the executor emit, so a
    # scrape of a merged registry and of a live run read the same way.
    registry.gauge("campaign.cells.total").set(len(grid))
    registry.gauge("campaign.cells.completed").set(len(results))
    registry.counter("campaign.cache.hits").add(len(results) - executed)
    registry.counter("campaign.cache.misses").add(executed)
    if failures:
        registry.gauge("campaign.cells.quarantined").set(len(failures))

    if strict and not report.complete:
        raise MergeError(
            "incomplete merge: "
            f"{len(report.gaps)} gap(s), {len(report.conflicts)} "
            f"conflict(s) -- see MergeReport.lines() for details"
        )

    return MergedCampaign(
        results=tuple(results[i] for i in sorted(results)),
        failures=tuple(failures[i] for i in sorted(failures)),
        registry=registry,
        grid=grid,
        report=report,
    )


__all__ = [
    "MergeError",
    "MergeReport",
    "MergedCampaign",
    "find_manifests",
    "merge_shards",
]
