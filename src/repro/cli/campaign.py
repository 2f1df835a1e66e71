"""``campaign`` subcommand: run/merge/status/watch on the fleet runner."""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.cli._options import (
    add_faults_argument,
    add_obs_arguments,
    add_workers_argument,
    load_faults,
    observability,
    print_engine_timings,
)
from repro.runner.status import DEFAULT_STALL_AFTER


def _cmd_campaign(args: argparse.Namespace) -> int:
    """Run a preset campaign grid, merge shards, or report fleet health."""
    if args.action == "merge":
        return _cmd_campaign_merge(args)
    if args.action == "status":
        return _cmd_campaign_status(args)
    if args.action == "watch":
        return _cmd_campaign_watch(args)
    if args.sources:
        print("positional shard sources are only valid with "
              "'campaign merge', 'campaign status' or 'campaign watch'",
              file=sys.stderr)
        return 2
    return _cmd_campaign_run(args)


def _shard_sources(args: argparse.Namespace) -> Optional[List[str]]:
    """The positional sources, else ``--results-dir``; ``None`` after
    printing a usage message when there are neither."""
    sources = list(args.sources)
    if not sources and args.results_dir is not None:
        sources = [args.results_dir]
    if not sources:
        print(f"campaign {args.action} needs shard sources (results "
              "directories or manifest files), e.g.: repro-clocksync "
              f"campaign {args.action} out/", file=sys.stderr)
        return None
    return sources


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    """One snapshot of fleet health from manifests + heartbeats.

    Exit codes: 0 healthy (running or complete), 1 when any shard is
    stalled/dead/unknown, 2 when the sources hold no shards at all --
    so scripts and CI can gate on liveness without parsing the table.
    """
    import json as json_module

    from repro.runner.merge import MergeError
    from repro.runner.status import collect_fleet_status, fleet_status_lines

    sources = _shard_sources(args)
    if sources is None:
        return 2
    try:
        fleet = collect_fleet_status(sources, stall_after=args.stall_after)
    except MergeError as exc:
        print(f"status failed: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json_module.dumps(fleet.to_json(), sort_keys=True))
    else:
        for line in fleet_status_lines(fleet):
            print(line)
    return 0 if fleet.healthy else 1


def _cmd_campaign_watch(args: argparse.Namespace) -> int:
    """Poll fleet status until the campaign completes (or ^C)."""
    import time as time_module

    from repro.runner.merge import MergeError
    from repro.runner.status import collect_fleet_status, fleet_status_lines

    sources = _shard_sources(args)
    if sources is None:
        return 2
    fleet = None
    try:
        while True:
            try:
                fleet = collect_fleet_status(
                    sources, stall_after=args.stall_after
                )
            except MergeError as exc:
                print(f"status failed: {exc}", file=sys.stderr)
                return 2
            for line in fleet_status_lines(fleet):
                print(line)
            if fleet.complete:
                return 0
            print()
            time_module.sleep(args.interval)
    except KeyboardInterrupt:
        print()
        # Interrupted before the first snapshot: health is unknown.
        return 0 if fleet is not None and fleet.healthy else 1


def _cmd_campaign_merge(args: argparse.Namespace) -> int:
    """Fuse shard JSONL streams into the canonical campaign table."""
    from repro.records import write_atomic
    from repro.runner.merge import MergeError, merge_shards
    from repro.workloads.campaign import summarize_groups

    sources = _shard_sources(args)
    if sources is None:
        return 2
    try:
        merged = merge_shards(sources)
    except MergeError as exc:
        print(f"merge failed: {exc}", file=sys.stderr)
        return 2
    table = summarize_groups(
        merged.aggregates, seeds_per_cell=merged.seeds_per_cell
    )
    table.show()
    print()
    for line in merged.report.lines():
        print(line)
    if args.table_out is not None:
        path = write_atomic(args.table_out, table.format() + "\n")
        print(f"table written: {path}")
    if args.results_out is not None:
        from repro.runner.cells import write_cell_results_jsonl

        path = write_cell_results_jsonl(args.results_out, merged.results)
        print(f"results written: {path}  ({len(merged.results)} cells)")
    return 0 if merged.report.complete else 1


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    """Run a preset campaign grid on the sharded parallel runner."""
    from contextlib import ExitStack

    from repro.analysis.reporting import Table
    from repro.experiments.common import CAMPAIGN_PRESETS
    from repro.records import write_atomic
    from repro.runner.cells import write_cell_results_jsonl
    from repro.runner.heartbeat import DEFAULT_HEARTBEAT_INTERVAL
    from repro.workloads.campaign import summarize_groups

    cache_dir = args.cache_dir
    if args.resume and cache_dir is None:
        cache_dir = ".repro-cache"
    campaign, topologies = CAMPAIGN_PRESETS[args.preset](quick=args.quick)
    if args.faults is not None:
        campaign = campaign.with_faults(load_faults(args.faults))

    with ExitStack() as stack:
        # --serve-metrics needs a live registry to scrape, so it forces
        # the recorder on even with no export flags.
        recorder = stack.enter_context(
            observability(args, force=args.serve_metrics is not None)
        )
        if args.serve_metrics is not None:
            from repro.obs.http import serve_telemetry
            from repro.runner.status import fleet_health

            server = stack.enter_context(
                serve_telemetry(
                    port=args.serve_metrics,
                    health=fleet_health(args.results_dir),
                )
            )
            print(f"telemetry: {server.url}/metrics  {server.url}/healthz")
        outcome = campaign.run_results(
            topologies,
            workers=args.workers,
            shard=args.shard,
            cache_dir=cache_dir,
            cell_timeout=args.cell_timeout,
            retries=args.retries,
            results_dir=args.results_dir,
            bounded_memory=args.bounded_memory,
            cache_max_entries=args.cache_max_entries,
            heartbeat_interval=(
                args.heartbeat_interval
                if args.heartbeat_interval is not None
                else DEFAULT_HEARTBEAT_INTERVAL
            ),
        )
        table = summarize_groups(
            outcome.aggregates, seeds_per_cell=len(campaign.seeds)
        )
        table.show()
        if args.table_out is not None:
            path = write_atomic(args.table_out, table.format() + "\n")
            print(f"table written: {path}")
        if args.cells:
            print()
            detail = Table(
                title="campaign cells (grid order)",
                headers=["scenario", "topology", "seed", "precision",
                         "realized", "sound", "backend", "cache",
                         "seconds"],
            )
            for r in outcome.results:
                detail.add_row(
                    r.scenario, r.topology, r.seed, f"{r.precision:.6g}",
                    f"{r.realized:.6g}", r.sound, r.backend,
                    "hit" if r.cache_hit else "-", f"{r.seconds:.3f}",
                )
            detail.show()
        summary = outcome.summary()
        print()
        print(f"cells:    {summary['cells']}  "
              f"(shard {summary['shard'] or 'none'})")
        print(f"workers:  {summary['workers']}")
        print(f"cache:    {summary['cache_hits']} hit(s), "
              f"{summary['cache_misses']} miss(es)"
              + (f"  [{cache_dir}]" if cache_dir else "  [disabled]"))
        print(f"elapsed:  {summary['seconds']:.3f} s")
        if outcome.manifest is not None:
            print(f"stream:   {outcome.manifest}"
                  + (f"  ({outcome.resumed} cell(s) resumed)"
                     if outcome.resumed else ""))
        if outcome.cache_evicted:
            print(f"evicted:  {outcome.cache_evicted} cache entr"
                  f"{'y' if outcome.cache_evicted == 1 else 'ies'} "
                  f"(LRU bound)")
        if outcome.cache_corrupt:
            plural = "y" if outcome.cache_corrupt == 1 else "ies"
            print(f"WARNING:  {outcome.cache_corrupt} corrupt cache "
                  f"entr{plural} ignored (re-executed those cells)")
        if outcome.quarantined:
            print(f"quarantined: {len(outcome.quarantined)} cell(s)  "
                  f"({outcome.retried} retried)")
            for f in outcome.quarantined:
                print(f"  {f.scenario} @ {f.topology} seed {f.seed}: "
                      f"{f.kind} after {f.attempts} attempt(s) -- "
                      f"{f.message}")
        elif outcome.retried:
            print(f"retried:  {outcome.retried} cell(s), all recovered")
        if args.results_out is not None:
            path = write_cell_results_jsonl(
                args.results_out, outcome.results
            )
            print(f"results written: {path}  "
                  f"({len(outcome.results)} cells)")
        if args.timings and recorder is not None:
            print()
            print_engine_timings(recorder)
    return 0


def register(sub) -> None:
    p_campaign = sub.add_parser(
        "campaign",
        help="run a preset sweep grid on the sharded parallel runner, "
        "or merge shard result streams",
    )
    p_campaign.add_argument(
        "action", nargs="?",
        choices=["run", "merge", "status", "watch"], default="run",
        help="'run' (default) executes the grid; 'merge' fuses shard "
        "JSONL streams produced with --results-dir; 'status' prints "
        "one fleet-health snapshot (exit 1 on stalled/dead shards); "
        "'watch' polls it live until the campaign completes",
    )
    p_campaign.add_argument(
        "sources", nargs="*", metavar="SOURCE",
        help="(merge/status/watch only) results directories or manifest "
        "files to inspect",
    )
    p_campaign.add_argument(
        "--preset", choices=["demo", "e9c", "chaos"], default="demo",
        help="which campaign grid to run (default: demo; 'chaos' is a "
        "small chaos-injected grid for exercising the quarantine policy "
        "and telemetry)",
    )
    p_campaign.add_argument(
        "--quick", action="store_true", help="trimmed seeds/sizes"
    )
    add_workers_argument(p_campaign)
    p_campaign.add_argument(
        "--shard", metavar="I/M", default=None,
        help="run only shard i of m (1-based); the union of all m "
        "shards is the full grid",
    )
    p_campaign.add_argument(
        "--cache-dir", metavar="PATH", default=None,
        help="content-addressed result cache directory (cells already "
        "solved there are skipped)",
    )
    p_campaign.add_argument(
        "--resume", action="store_true",
        help="shorthand for --cache-dir .repro-cache",
    )
    p_campaign.add_argument(
        "--cells", action="store_true",
        help="also print the per-cell detail table",
    )
    p_campaign.add_argument(
        "--results-out", metavar="PATH", default=None,
        help="write per-cell results as JSONL (campaign.cell records)",
    )
    streaming = p_campaign.add_argument_group(
        "streaming",
        "fleet-scale options: stream results durably as they complete, "
        "resume killed shards, bound memory",
    )
    streaming.add_argument(
        "--results-dir", metavar="DIR", default=None,
        help="stream each completed cell to an append-only JSONL shard "
        "in DIR (fsync'd); re-running with the same DIR resumes from "
        "the last durable cell, and 'campaign merge DIR' fuses shards",
    )
    streaming.add_argument(
        "--bounded-memory", action="store_true",
        help="drop each result after streaming it (requires "
        "--results-dir); the table is built from running aggregates",
    )
    streaming.add_argument(
        "--cache-max-entries", type=int, default=None, metavar="N",
        help="bound --cache-dir to N entries (LRU-by-mtime eviction)",
    )
    streaming.add_argument(
        "--table-out", metavar="PATH", default=None,
        help="also write the summary table to PATH (byte-comparable "
        "across runs, shards and merges)",
    )
    add_faults_argument(p_campaign)
    robust = p_campaign.add_argument_group(
        "robustness",
        "any of these turns on the quarantine policy: failing "
        "cells are retried, then quarantined and reported instead of "
        "aborting the campaign",
    )
    robust.add_argument(
        "--cell-timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget per cell (enforced in-worker)",
    )
    robust.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="re-run failed cells up to N extra times (default 0)",
    )
    add_obs_arguments(p_campaign)
    telemetry = p_campaign.add_argument_group(
        "fleet telemetry",
        "liveness heartbeats next to every shard stream, a status/watch "
        "view fused from them, and an HTTP sidecar for scrapers",
    )
    telemetry.add_argument(
        "--serve-metrics", type=int, default=None, metavar="PORT",
        help="(run) serve /metrics (Prometheus 0.0.4) and /healthz on "
        "127.0.0.1:PORT for the duration of the run (0 = ephemeral)",
    )
    telemetry.add_argument(
        "--heartbeat-interval", type=float, default=None, metavar="SECONDS",
        help="(run) min seconds between heartbeat sidecar writes "
        "(default 5; needs --results-dir)",
    )
    telemetry.add_argument(
        "--stall-after", type=float, default=DEFAULT_STALL_AFTER,
        metavar="SECONDS",
        help="(status/watch) flag a shard as stalled once its heartbeat "
        "is older than SECONDS (default %(default)g)",
    )
    telemetry.add_argument(
        "--json", action="store_true",
        help="(status) emit the fleet snapshot as one JSON object",
    )
    telemetry.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="(watch) poll interval (default 2)",
    )
    p_campaign.set_defaults(func=_cmd_campaign)
