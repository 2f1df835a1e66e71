"""The sharded campaign runner: cells in, streamed results + metrics out.

:func:`run_campaign` is the engine under :meth:`Campaign.run
<repro.workloads.campaign.Campaign.run>` and :func:`repro.sweep`:

1. **Shard** -- keep only the cells owned by ``shard`` (``"i/m"``),
   partitioned by the stable (scenario, seed) hash of
   :mod:`repro.runner.sharding`;
2. **Resume** -- when a ``results_dir``/``sink`` is given, recover every
   cell already durable in the shard's JSONL stream
   (:mod:`repro.runner.sink`) and re-execute only what is missing;
3. **Cache** -- look the remaining cells up in the content-addressed
   :class:`~repro.runner.cache.ResultCache` (when a ``cache_dir`` is
   given) and skip solved ones;
4. **Execute** -- fan the misses out with
   :func:`~repro.runner.executor.execute_cells` (a process pool, or
   inline for one worker) and *stream* completions back: each result
   is appended -- fsync'd -- to the sink the moment it exists.  Every
   attempt is one call; with ``cell_timeout`` or ``retries`` the calls
   quarantine failures, and the cells that failed are retried in the
   next attempt;
5. **Merge** -- fold each cell's metrics snapshot into one campaign
   registry *in canonical grid order* (gauges are last-write-wins, so
   merge order is the determinism contract), buffering only the
   out-of-order prefix, not the whole grid.

Determinism contract: the results -- and any table built from them --
are byte-identical for any ``workers`` count, and the union of all
``m`` shards equals the unsharded run (the merge pipeline of
:mod:`repro.runner.merge` re-fuses shard streams into exactly that).
Only wall-clock series (``*.seconds``) may differ.

Memory contract: with ``bounded_memory=True`` (requires a sink) the
runner holds O(1) ``CellResult`` objects whatever the grid size --
each result is persisted, folded into the per-(builder, topology)
aggregates, and dropped.  The sink's ``resident_high_water`` counter
asserts this.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.engine.stats import EngineStats
from repro.obs.log import log_event
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import get_recorder
from repro.runner.cache import ResultCache, cell_cache_key
from repro.runner.cells import CellResult, CellTask
from repro.runner.executor import CellFailure, execute_cells, resolve_workers
from repro.runner.heartbeat import DEFAULT_HEARTBEAT_INTERVAL, HeartbeatWriter
from repro.runner.sharding import Shard, in_shard, parse_shard
from repro.runner.sink import ResultSink


@dataclass(frozen=True)
class GroupAggregate:
    """Per-(builder, topology) aggregate of a bounded-memory run.

    Field-compatible with :class:`repro.workloads.campaign.CampaignCell`
    so :func:`repro.workloads.campaign.summarize_groups` renders either.
    """

    builder: str
    topology: str
    precisions: Tuple[float, ...]
    realized: Tuple[float, ...]
    certified: bool


class _GroupAccumulator:
    """Folds streamed results into canonical-order group aggregates."""

    def __init__(self, specs: Sequence[Tuple[str, str]]) -> None:
        # Group order is fixed by the grid, not by completion order.
        self._order: List[Tuple[str, str]] = []
        self._entries: Dict[Tuple[str, str], Dict[int, Tuple]] = {}
        for key in specs:
            if key not in self._entries:
                self._order.append(key)
                self._entries[key] = {}

    def add(self, position: int, result: CellResult) -> None:
        key = (result.scenario, result.topology)
        self._entries[key][position] = (
            result.precision,
            result.realized,
            result.sound,
        )

    def finalize(self) -> Tuple[GroupAggregate, ...]:
        groups: List[GroupAggregate] = []
        for key in self._order:
            entries = self._entries[key]
            if not entries:
                continue  # all seeds of this pair live in other shards
            rows = [entries[p] for p in sorted(entries)]
            groups.append(
                GroupAggregate(
                    builder=key[0],
                    topology=key[1],
                    precisions=tuple(r[0] for r in rows),
                    realized=tuple(r[1] for r in rows),
                    certified=all(r[2] for r in rows),
                )
            )
        return tuple(groups)

    def __len__(self) -> int:
        return sum(len(entries) for entries in self._entries.values())


@dataclass
class CampaignOutcome:
    """Everything one (possibly sharded, possibly resumed) run produced.

    ``results`` are in grid order (builders outer, topologies inner,
    seeds innermost), restricted to this shard when sharded -- and
    *empty* in bounded-memory mode, where only ``aggregates`` (and the
    durable sink stream) carry the data.  ``registry`` holds the merged
    metrics of every *executed* cell (cache-restored cells contribute
    their stored timings to the result rows but no metrics -- they did
    not run; stream-recovered cells contribute the snapshot persisted
    with them).
    """

    results: Tuple[CellResult, ...]
    registry: MetricsRegistry
    workers: int
    shard: Optional[Shard]
    cache_hits: int
    cache_misses: int
    seconds: float
    #: Cells that never produced a result (crash/timeout/error after all
    #: retries); excluded from ``results``.  Empty unless robustness
    #: options were used and something actually failed.
    quarantined: Tuple[CellFailure, ...] = ()
    #: Cells that needed at least one retry (whether or not they
    #: eventually succeeded).
    retried: int = 0
    #: Cache entries that existed but failed to parse (corruption, not
    #: cold cache); see :class:`~repro.runner.cache.ResultCache`.
    cache_corrupt: int = 0
    #: Cache entries evicted by the LRU size bound this run.
    cache_evicted: int = 0
    #: Cells restored from the shard's durable JSONL stream (resume).
    resumed: int = 0
    #: Completed cells (results + nothing quarantined); equals
    #: ``len(results)`` except in bounded-memory mode.
    cells: int = 0
    #: Per-(builder, topology) aggregates (bounded-memory mode only).
    aggregates: Optional[Tuple[GroupAggregate, ...]] = None
    #: The finalized shard manifest, when a sink was attached.
    manifest: Optional[Path] = None
    #: Peak simultaneously-resident CellResult count, when a sink
    #: tracked it (the bounded-memory acceptance metric).
    resident_high_water: Optional[int] = None

    @property
    def engine_stats(self) -> EngineStats:
        """Merged per-stage engine timings, as a stats view."""
        return EngineStats(registry=self.registry)

    def summary(self) -> Dict[str, object]:
        """Plain-data run summary (for logs and JSON reports)."""
        return {
            "cells": self.cells,
            "workers": self.workers,
            "shard": None if self.shard is None else
            f"{self.shard[0]}/{self.shard[1]}",
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "seconds": self.seconds,
            "quarantined": [f.to_json() for f in self.quarantined],
            "retried": self.retried,
            "cache_corrupt": self.cache_corrupt,
            "cache_evicted": self.cache_evicted,
            "resumed": self.resumed,
            "manifest": None if self.manifest is None else str(self.manifest),
        }


def run_campaign(
    tasks: Sequence[CellTask],
    *,
    workers: Optional[int] = None,
    shard: Union[Shard, str, None] = None,
    cache_dir: Optional[str] = None,
    cell_timeout: Optional[float] = None,
    retries: int = 0,
    retry_backoff: float = 0.0,
    results_dir: Union[str, Path, None] = None,
    sink: Optional[ResultSink] = None,
    bounded_memory: bool = False,
    cache_max_entries: Optional[int] = None,
    heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
) -> CampaignOutcome:
    """Execute campaign cells sharded/streamed/cached; see module docstring.

    Streaming & resume:

    * ``results_dir`` attaches a :class:`~repro.runner.sink.ResultSink`:
      every completed cell is durably appended to the shard's JSONL
      stream, and a killed invocation re-run with the same
      ``results_dir`` resumes from its last durable cell;
    * ``sink`` passes a pre-built sink instead (``results_dir`` sugar);
    * ``bounded_memory=True`` (requires a sink) drops each
      ``CellResult`` after persisting + aggregating it: the outcome
      carries only ``aggregates`` and the manifest;
    * streaming runs additionally emit an atomic
      ``heartbeat-i-of-m.json`` liveness sidecar next to the sink (one
      write per ``heartbeat_interval`` seconds, event-driven so a hung
      cell stops the beats) -- what ``campaign status``/``watch`` and
      :mod:`repro.runner.status` read.

    Robustness (all off by default, when any cell failure propagates
    and a dead pool worker raises ``BrokenProcessPool``):

    * ``cell_timeout`` bounds each cell's wall-clock seconds;
    * ``retries`` re-runs failed cells up to that many extra times,
      sleeping ``retry_backoff * attempt`` seconds between rounds;
    * cells still failing afterwards are *quarantined* -- reported on
      :attr:`CampaignOutcome.quarantined`, persisted as failure records
      in the sink stream, and excluded from ``results`` -- instead of
      aborting (or hanging) the whole sweep.  All other cells are
      byte-identical to a fault-free run (the contract is per cell).
    """
    started = time.perf_counter()
    if isinstance(shard, str):
        shard = parse_shard(shard)
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    quarantine = cell_timeout is not None or retries > 0
    worker_count = resolve_workers(workers)

    all_tasks = list(tasks)
    grid = [task.spec.key for task in all_tasks]
    if shard is not None:
        selected = [
            (index, task)
            for index, task in enumerate(all_tasks)
            if in_shard(task.spec, shard)
        ]
    else:
        selected = list(enumerate(all_tasks))
    n = len(selected)
    grid_index_of = [index for index, _ in selected]

    if sink is None and results_dir is not None:
        sink = ResultSink(results_dir, shard=shard)
    if bounded_memory and sink is None:
        raise ValueError(
            "bounded_memory=True requires a sink (pass results_dir=...): "
            "without one the dropped results would exist nowhere"
        )
    recovery = sink.begin(grid, grid_index_of) if sink is not None else None

    heartbeat: Optional[HeartbeatWriter] = None
    if sink is not None:
        heartbeat = HeartbeatWriter(
            sink.directory, shard=sink.shard, interval=heartbeat_interval
        )
        heartbeat.begin(total=n)

    cache = (
        ResultCache(cache_dir, max_entries=cache_max_entries)
        if cache_dir is not None
        else None
    )
    merged = MetricsRegistry()
    # The grid-wide total goes in before any executor batch runs, so
    # the executor's batch-size fallback never overrides it.
    merged.gauge("campaign.cells.total").set(n)
    recorder = get_recorder()

    results: List[Optional[CellResult]] = [None] * n
    failures: Dict[int, CellFailure] = {}
    recovered_failures: Set[int] = set()
    retried_positions: Set[int] = set()
    aggregates = (
        _GroupAccumulator(
            [(task.spec.builder, task.spec.topology.name) for _, task in selected]
        )
        if bounded_memory
        else None
    )

    # Snapshot slots awaiting their turn in the canonical-order metrics
    # fold; ``None`` marks a position that contributes no metrics
    # (cache hit, quarantine).  Bounded by the out-of-order window of
    # the executor, not by the grid.
    ready: Dict[int, Optional[dict]] = {}
    merge_state = {"next": 0}
    stored = 0
    hits = 0
    resumed = 0
    done = 0  # cells settled so far (resumed + cached + executed)

    def note_progress() -> None:
        """Push authoritative progress to the heartbeat + live gauges."""
        if recorder.enabled:
            live = recorder.registry
            live.gauge("campaign.cells.total").set(n)
            live.gauge("campaign.cells.completed").set(done)
            if failures:
                live.gauge("campaign.cells.quarantined").set(len(failures))
        if heartbeat is not None:
            heartbeat.set_progress(
                completed=done,
                quarantined=len(failures),
                cache_hits=hits,
                resumed=resumed,
                resident=(
                    sink.resident_high_water if sink is not None else None
                ),
            )

    def advance_merge() -> None:
        position = merge_state["next"]
        while position < n and position in ready:
            snapshot = ready.pop(position)
            if snapshot:
                merged.merge_snapshot(snapshot)
            position += 1
        merge_state["next"] = position

    def settle(
        position: int,
        result: CellResult,
        snapshot: Optional[dict],
        write_sink: bool,
    ) -> None:
        nonlocal stored, done
        if sink is not None:
            # Resident right now: everything already stored plus the
            # result in hand (which bounded-memory mode never stores).
            sink.note_resident(stored + 1)
        if sink is not None and write_sink:
            sink.append_result(grid_index_of[position], result, metrics=snapshot)
        if aggregates is not None:
            aggregates.add(position, result)
        else:
            results[position] = result
            stored += 1
        ready[position] = snapshot
        done += 1
        note_progress()
        advance_merge()

    misses: List[Tuple[int, int, CellTask, Optional[str]]] = []
    with recorder.span(
        "campaign.run",
        cells=n,
        workers=worker_count,
        shard="-" if shard is None else f"{shard[0]}/{shard[1]}",
        cached=cache is not None,
        quarantine=quarantine,
        streaming=sink is not None,
    ):
        for position, (grid_index, task) in enumerate(selected):
            if recovery is not None:
                prior = recovery.results.get(grid_index)
                if prior is not None:
                    resumed += 1
                    settle(
                        position,
                        prior,
                        recovery.metrics.get(grid_index),
                        write_sink=False,
                    )
                    continue
                failed = recovery.failures.get(grid_index)
                if failed is not None:
                    resumed += 1
                    failures[position] = failed
                    recovered_failures.add(position)
                    ready[position] = None
                    note_progress()
                    advance_merge()
                    continue
            key = cell_cache_key(task) if cache is not None else None
            hit = cache.get(key) if cache is not None else None
            if hit is not None:
                hits += 1
                settle(position, hit, None, write_sink=True)
            else:
                misses.append((position, grid_index, task, key))

        pending = misses
        for attempt in range(retries + 1):
            if not pending:
                break
            if attempt > 0:
                retried_positions.update(p for p, _, _, _ in pending)
                if retry_backoff > 0:
                    time.sleep(retry_backoff * attempt)
            still_failing: List[Tuple[int, int, CellTask, Optional[str]]] = []
            for batch_index, outcome in execute_cells(
                [task for _, _, task, _ in pending],
                worker_count,
                timeout=cell_timeout,
                quarantine=quarantine,
                registry=merged,
                progress=heartbeat,
            ):
                entry = pending[batch_index]
                position, _, _, key = entry
                if isinstance(outcome, CellFailure):
                    failures[position] = replace(outcome, attempts=attempt + 1)
                    still_failing.append(entry)
                    continue
                failures.pop(position, None)
                if cache is not None:
                    cache.put(key, outcome.result)
                settle(position, outcome.result, outcome.metrics, write_sink=True)
            pending = still_failing
        for position in sorted(failures):
            if position in recovered_failures:
                continue
            failure = failures[position]
            if sink is not None:
                sink.append_failure(grid_index_of[position], failure)
            ready[position] = None
            recorder.emit("campaign.cell.quarantined", failure=failure.to_json())
            log_event(
                "warning",
                "campaign.cell.quarantined",
                logger="repro.workloads.parallel",
                scenario=failure.scenario,
                topology=failure.topology,
                seed=failure.seed,
                kind=failure.kind,
                attempts=failure.attempts,
            )
        note_progress()
        advance_merge()

    assert merge_state["next"] == n, "metrics fold did not drain"
    quarantined = tuple(failures[p] for p in sorted(failures))
    completed = n - len(quarantined)
    corrupt = cache.corrupt_entries if cache is not None else 0
    evicted = cache.evicted_entries if cache is not None else 0
    # Progress truths are gauges: total was set before the first batch,
    # completed/quarantined get their final authoritative values here.
    merged.gauge("campaign.cells.completed").set(completed)
    merged.counter("campaign.cache.hits").add(hits)
    merged.counter("campaign.cache.misses").add(len(misses))
    if quarantined:
        merged.gauge("campaign.cells.quarantined").set(len(quarantined))
    if retried_positions:
        merged.counter("campaign.cells.retried").add(len(retried_positions))
    if corrupt:
        merged.counter("campaign.cache.corrupt").add(corrupt)
    if evicted:
        merged.counter("campaign.cache.evicted").add(evicted)
    if resumed:
        merged.counter("campaign.cells.resumed").add(resumed)
    if recorder.enabled:
        # Surface the sweep's metrics in the ambient registry so CLI
        # --metrics-out / --timings aggregate over the whole campaign.
        recorder.registry.merge(merged)

    manifest = sink.close() if sink is not None else None
    if heartbeat is not None:
        heartbeat.set_progress(
            completed=completed,
            quarantined=len(quarantined),
            cache_hits=hits,
            resumed=resumed,
        )
        heartbeat.close(complete=True)

    if aggregates is not None:
        kept: Tuple[CellResult, ...] = ()
        assert len(aggregates) == completed
        groups: Optional[Tuple[GroupAggregate, ...]] = aggregates.finalize()
    else:
        kept = tuple(r for r in results if r is not None)
        assert len(kept) + len(quarantined) == n
        groups = None

    return CampaignOutcome(
        results=kept,
        registry=merged,
        workers=worker_count,
        shard=shard,
        cache_hits=hits,
        cache_misses=len(misses),
        seconds=time.perf_counter() - started,
        quarantined=quarantined,
        retried=len(retried_positions),
        cache_corrupt=corrupt,
        cache_evicted=evicted,
        resumed=resumed,
        cells=completed,
        aggregates=groups,
        manifest=manifest,
        resident_high_water=(
            sink.resident_high_water if sink is not None else None
        ),
    )


__all__ = ["CampaignOutcome", "GroupAggregate", "run_campaign"]
