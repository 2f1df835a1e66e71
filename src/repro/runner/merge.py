"""Canonical-order fusion: the campaign fold and the shard merge pipeline.

:class:`CampaignFold` is the one place that turns cells settled in any
order into the canonical single-process view: results in grid order
(builders outer, topologies inner, seeds innermost), one
:class:`~repro.obs.metrics.MetricsRegistry` folded from the per-cell
snapshots *in grid order* (gauges are last-write-wins, so merge order
is part of the determinism contract), and one :class:`CampaignCell` row
per (builder, topology).  :func:`~repro.workloads.parallel.run_campaign`
settles cells into it as they complete; :func:`merge_shards` settles
the cells of any number of shard streams (see :mod:`repro.runner.sink`)
into it, so a table built from either is byte-identical.

:func:`merge_shards` also reports everything that does not add up in a
:class:`MergeReport`: **gaps** (grid cells no stream covers),
**overlaps** (cells covered by more than one stream -- benign when the
duplicate results agree) and **conflicts** (duplicates that *disagree*,
which means the shards did not actually run the same campaign).

Shards of different grids never merge: every manifest carries the full
grid fingerprint and a mismatch raises :class:`MergeError` outright.
Quarantined cells (durable ``campaign.cell.failure`` records) are
reported separately from gaps -- a known failure is not missing data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.metrics import MetricsRegistry
from repro.runner.cells import CellResult
from repro.runner.executor import CellFailure
from repro.runner.sink import (
    CellKey,
    decode_stream,
    load_manifest,
    read_stream_records,
)


class MergeError(ValueError):
    """The shard set cannot be fused (grid mismatch, bad manifest, ...)."""


@dataclass(frozen=True)
class CampaignCell:
    """All runs of one (builder, topology) combination, seeds in order."""

    builder: str
    topology: str
    precisions: Tuple[float, ...]
    realized: Tuple[float, ...]
    certified: bool


class CampaignFold:
    """Folds cells settled in any order into canonical grid order.

    ``specs`` holds the (builder, topology) of every grid position.
    Each position is settled exactly once, with its result (``None``
    for a quarantined cell) and its metrics snapshot (``None`` when it
    did not run).  Only the out-of-order window is buffered: as soon as
    the next position in grid order is settled, it is folded --
    snapshot into ``registry``, result into its group row, and, with
    ``keep_results``, into the result list.
    """

    def __init__(
        self,
        specs: Sequence[Tuple[str, str]],
        *,
        registry: MetricsRegistry,
        keep_results: bool,
    ) -> None:
        self._specs = list(specs)
        self._registry = registry
        self._keep_results = keep_results
        self._pending: Dict[
            int, Tuple[Optional[CellResult], Optional[dict]]
        ] = {}
        self._next = 0
        self._results: List[CellResult] = []
        # Group order is fixed by the grid, not by completion order.
        self._groups: Dict[
            Tuple[str, str], List[Tuple[float, float, bool]]
        ] = {key: [] for key in self._specs}

    @property
    def resident(self) -> int:
        """``CellResult`` objects held right now (kept plus buffered)."""
        return len(self._results) + len(self._pending)

    def settle(
        self,
        position: int,
        result: Optional[CellResult],
        snapshot: Optional[dict],
    ) -> None:
        self._pending[position] = (result, snapshot)
        while self._next in self._pending:
            result, snapshot = self._pending.pop(self._next)
            if snapshot:
                self._registry.merge_snapshot(snapshot)
            if result is not None:
                self._groups[self._specs[self._next]].append(
                    (result.precision, result.realized, result.sound)
                )
                if self._keep_results:
                    self._results.append(result)
            self._next += 1

    def finish(
        self,
    ) -> Tuple[Tuple[CellResult, ...], Tuple[CampaignCell, ...]]:
        """``(results, groups)`` in grid order; groups without results
        (every seed quarantined or in another shard) are skipped."""
        assert self._next == len(self._specs), "campaign fold did not drain"
        groups = tuple(
            CampaignCell(
                builder=builder,
                topology=topology,
                precisions=tuple(row[0] for row in rows),
                realized=tuple(row[1] for row in rows),
                certified=all(row[2] for row in rows),
            )
            for (builder, topology), rows in self._groups.items()
            if rows
        )
        return tuple(self._results), groups


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
    #: Per-(builder, topology) rows of the fused results, grid order.
    aggregates: Tuple[CampaignCell, ...]

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


def merge_shards(
    paths: Sequence[Union[str, Path]],
    strict: bool = False,
) -> MergedCampaign:
    """Fuse shard streams (given as dirs or manifest paths); see module doc.

    With ``strict=True``, an incomplete merge (gaps or conflicts) raises
    :class:`MergeError` instead of returning a report to inspect.
    """
    manifest_paths = find_manifests(paths)
    try:
        manifests = [(p, load_manifest(p)) for p in manifest_paths]
    except ValueError as exc:
        raise MergeError(str(exc)) from exc

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
        shard = decode_stream(records, len(grid))
        if shard.bad:
            # Resuming the shard re-executes a bad cell; until then the
            # stream cannot be trusted for it.
            raise MergeError(f"{stream}: {shard.bad[min(shard.bad)]}")
        # The first shard to cover a cell wins; a later disagreeing
        # duplicate is a conflict, an agreeing one a benign overlap.
        for index, result in shard.results.items():
            first_result = results.get(index)
            if first_result is None:
                results[index] = result
                metrics[index] = shard.metrics[index]
                failures.pop(index, None)
            elif first_result.fingerprint() != result.fingerprint():
                report.conflicts.append(grid[index])
        for index, failure in shard.failures.items():
            if index not in results:
                failures[index] = failure
        for index in set(shard.results) | set(shard.failures):
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

    registry = MetricsRegistry()
    fold = CampaignFold(
        [(builder, topology) for builder, topology, _ in grid],
        registry=registry,
        keep_results=True,
    )
    for index in range(len(grid)):
        fold.settle(index, results.get(index), metrics.get(index))
    fused, aggregates = fold.finish()
    # A cell was executed, not served from the cache, when its result
    # carries a metrics snapshot or it has a failure record.
    executed = sum(1 for snapshot in metrics.values() if snapshot)
    # Progress metrics are gauges (point-in-time truths, set not
    # summed), matching what run_campaign and the executor emit, so a
    # scrape of a merged registry and of a live run read the same way.
    registry.gauge("campaign.cells.total").set(len(grid))
    registry.gauge("campaign.cells.completed").set(len(results))
    registry.counter("campaign.cache.hits").add(len(results) - executed)
    registry.counter("campaign.cache.misses").add(executed + len(failures))
    if failures:
        registry.gauge("campaign.cells.quarantined").set(len(failures))

    if strict and not report.complete:
        raise MergeError(
            "incomplete merge: "
            f"{len(report.gaps)} gap(s), {len(report.conflicts)} "
            f"conflict(s) -- see MergeReport.lines() for details"
        )

    return MergedCampaign(
        results=fused,
        failures=tuple(failures[i] for i in sorted(failures)),
        registry=registry,
        grid=grid,
        report=report,
        aggregates=aggregates,
    )


__all__ = [
    "CampaignCell",
    "CampaignFold",
    "MergeError",
    "MergeReport",
    "MergedCampaign",
    "find_manifests",
    "merge_shards",
]
