"""``list``, ``experiment``, ``all`` and ``profile`` subcommands."""

from __future__ import annotations

import argparse
import sys

from repro.cli._options import (
    add_obs_arguments,
    add_workers_argument,
    observability,
    print_engine_timings,
)
from repro.experiments import DESCRIPTIONS, REGISTRY, run_experiment


def _cmd_list(_args: argparse.Namespace) -> int:
    width = max(len(k) for k in REGISTRY)
    for key in sorted(REGISTRY, key=lambda k: int(k[1:])):
        print(f"{key.ljust(width)}  {DESCRIPTIONS[key]}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.runner.executor import default_workers

    with default_workers(args.workers), observability(args) as recorder:
        try:
            tables = run_experiment(args.id, quick=args.quick)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        for table in tables:
            table.show()
        if args.timings and recorder is not None:
            print()
            print_engine_timings(recorder)
    return 0


def _cmd_all(args: argparse.Namespace) -> int:
    from repro.runner.executor import default_workers

    with default_workers(args.workers), observability(args) as recorder:
        for key in sorted(REGISTRY, key=lambda k: int(k[1:])):
            print(f"### {key}: {DESCRIPTIONS[key]}\n")
            for table in run_experiment(key, quick=args.quick):
                table.show()
        if args.timings and recorder is not None:
            print()
            print_engine_timings(recorder)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Run one experiment under full instrumentation and report hot stages."""
    from repro.obs import (
        TracemallocPeak,
        format_bytes,
        format_span_tree,
        histogram_quantiles_table,
        key_metrics_table,
        record_memory_gauges,
        top_stages_table,
    )

    with observability(args, force=True) as recorder:
        try:
            with TracemallocPeak() as traced:
                tables = run_experiment(args.id, quick=args.quick)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        readings = record_memory_gauges(
            recorder, tracemalloc_peak=traced.peak_bytes
        )
        if args.show_tables:
            for table in tables:
                table.show()
            print()
        spans = recorder.tracer.finished()
        quick = " --quick" if args.quick else ""
        print(f"### profile {args.id.upper()}{quick}: "
              f"{len(spans)} spans, {len(recorder.registry)} metric series\n")
        print("span tree (aggregated by name path, sorted by total time):")
        print(format_span_tree(spans, min_share=args.min_share))
        print()
        top_stages_table(spans, limit=args.top).show()
        print()
        print("peak memory: "
              + ", ".join(f"{name}={format_bytes(value)}"
                          for name, value in sorted(readings.items())))
        print()
        key_metrics_table(
            recorder.registry,
            prefixes=(
                "sim.", "pipeline.", "online.", "process.", "engine.shifts.",
            ),
        ).show()
        histograms = [
            name
            for name in recorder.registry.names()
            if getattr(recorder.registry.get(name), "kind", "") == "histogram"
        ]
        if histograms:
            print()
            histogram_quantiles_table(recorder.registry).show()
    return 0


def register(sub) -> None:
    """Attach this module's subcommands to the main subparser set."""
    sub.add_parser("list", help="list available experiments").set_defaults(
        func=_cmd_list
    )

    p_exp = sub.add_parser("experiment", help="run one experiment")
    p_exp.add_argument("id", help="experiment id, e.g. E1")
    p_exp.add_argument(
        "--quick", action="store_true", help="trimmed seeds/sizes"
    )
    add_workers_argument(p_exp)
    add_obs_arguments(p_exp)
    p_exp.set_defaults(func=_cmd_experiment)

    p_all = sub.add_parser("all", help="run the whole suite")
    p_all.add_argument(
        "--quick", action="store_true", help="trimmed seeds/sizes"
    )
    add_workers_argument(p_all)
    add_obs_arguments(p_all)
    p_all.set_defaults(func=_cmd_all)


def register_profile(sub) -> None:
    p_profile = sub.add_parser(
        "profile",
        help="run an experiment under full instrumentation and "
        "print a span-tree / top-stages report",
    )
    p_profile.add_argument("id", help="experiment id, e.g. E9")
    p_profile.add_argument(
        "--quick", action="store_true", help="trimmed seeds/sizes"
    )
    p_profile.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="rows in the top-stages table (default 10)",
    )
    p_profile.add_argument(
        "--min-share", type=float, default=0.0, metavar="FRAC",
        help="hide span-tree nodes below this fraction of total time",
    )
    p_profile.add_argument(
        "--show-tables", action="store_true",
        help="also print the experiment's own tables",
    )
    add_obs_arguments(p_profile, timings=False)
    p_profile.set_defaults(func=_cmd_profile)
