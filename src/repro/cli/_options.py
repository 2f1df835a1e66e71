"""Shared option groups and helpers for every CLI subcommand.

One home for the flags that used to be re-declared per subcommand: the
observability group (``--trace-out/--metrics-out/--flow-out/
--log-level/--log-jsonl/--timings``), ``--faults`` and ``--workers``.
The behaviour behind the flags lives in :mod:`repro.session`
(:class:`~repro.session.ObsOptions` / :class:`~repro.session.Session`);
this module only does argparse wiring and small print helpers.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from typing import Iterator

from repro.session import ObsOptions, _LOG_LEVELS


def add_obs_arguments(
    parser: argparse.ArgumentParser, timings: bool = True
) -> None:
    """The shared observability flag group (see :class:`ObsOptions`)."""
    group = parser.add_argument_group("observability")
    group.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="write spans as Chrome trace-event JSON "
        "(open in Perfetto or chrome://tracing)",
    )
    group.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write the metrics registry as JSONL (one record per series)",
    )
    group.add_argument(
        "--flow-out",
        metavar="PATH",
        default=None,
        help="write message causality flows as Chrome trace-event JSON "
        "(simulated-time flow arrows merged with the wall-clock spans)",
    )
    group.add_argument(
        "--log-level",
        choices=_LOG_LEVELS,
        default=None,
        help="logging level for the repro logger",
    )
    group.add_argument(
        "--log-jsonl",
        metavar="PATH",
        default=None,
        help="append structured log events as JSONL (one record per "
        "operational event; validate with repro.obs.validate_log_file)",
    )
    if timings:
        group.add_argument(
            "--timings",
            action="store_true",
            help="print the engine's per-stage timing breakdown",
        )


@contextmanager
def observability(args: argparse.Namespace, force: bool = False) -> Iterator:
    """Install a recorder for the command body when telemetry is wanted.

    Yields the active :class:`~repro.obs.recorder.Recorder`, or ``None``
    when every observability flag is off (the no-op recorder stays in
    place and the run pays nothing).  Exports happen on exit, after the
    command's own output.  Thin wrapper over
    :meth:`repro.session.ObsOptions.activate`.
    """
    options = ObsOptions.from_args(args, force=force)
    with options.activate() as recorder:
        yield recorder


def add_faults_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--faults", metavar="PLAN.json", default=None,
        help="inject the fault plan from this JSON file into every "
        "simulated run (write a starting point with "
        "'repro-clocksync faults template PLAN.json')",
    )


def add_workers_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="campaign worker processes (default: REPRO_WORKERS or 1)",
    )


def print_engine_timings(recorder) -> None:
    """``--timings`` output for experiment sweeps.

    Compatibility shim: the same ``  stage: x ms`` lines sync-trace has
    always printed from ``EngineStats``, read back here through the
    shared registry (every engine the sweep constructed reported into
    it).
    """
    from repro.engine.stats import EngineStats

    stats = EngineStats(registry=recorder.registry)
    print("engine stage timings (all engines, cumulative):")
    timings = stats.timings
    if not timings:
        print("  (no engine stages ran)")
    for stage, seconds in sorted(timings.items()):
        print(f"  {stage}: {seconds * 1e3:.3f} ms")


def print_run_summary(summary) -> None:
    if summary is None:
        return
    for label, value in summary.lines():
        print(f"{label + ':':<20}{value}")


def load_faults(path: str):
    """Load a ``--faults PLAN.json`` argument or exit with a clear error."""
    from repro.faults.plan import FaultPlanError, load_fault_plan

    try:
        return load_fault_plan(path)
    except FaultPlanError as exc:
        print(f"bad fault plan: {exc}", file=sys.stderr)
        raise SystemExit(2)


def build_scenario(name: str, size: int, seed: int):
    from repro.graphs import ring
    from repro.workloads.scenarios import bounded_uniform, heterogeneous

    topology = ring(size)
    if name == "bounded":
        return bounded_uniform(topology, lb=1.0, ub=3.0, seed=seed)
    if name == "hetero":
        return heterogeneous(topology, seed=seed)
    raise AssertionError(name)  # pragma: no cover - argparse choices
