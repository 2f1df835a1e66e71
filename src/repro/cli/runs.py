"""``demo``, ``record``, ``sync-trace`` and ``faults`` subcommands."""

from __future__ import annotations

import argparse
import sys

from repro.cli._options import (
    add_faults_argument,
    add_obs_arguments,
    build_scenario,
    load_faults,
    observability,
    print_run_summary,
)


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro import (
        BoundedDelay,
        ClockSynchronizer,
        InconsistentViewsError,
        NetworkSimulator,
        System,
        UniformDelay,
        draw_start_times,
        probe_automata,
        probe_schedule,
        realized_spread,
        ring,
        verify_certificate,
    )

    faults = load_faults(args.faults) if args.faults is not None else None
    with observability(args):
        topo = ring(5)
        system = System.uniform(topo, BoundedDelay.symmetric(1.0, 3.0))
        samplers = {link: UniformDelay(1.0, 3.0) for link in topo.links}
        starts = draw_start_times(topo.nodes, max_skew=10.0, seed=7)
        sim = NetworkSimulator(system, samplers, starts, seed=7, faults=faults)
        alpha = sim.run(probe_automata(topo, probe_schedule(3, 20.0, 5.0)))

        synchronizer = ClockSynchronizer(system)
        try:
            result = synchronizer.from_execution(alpha)
        except InconsistentViewsError as exc:
            print("pipeline rejected the views as inconsistent -- the "
                  "injected faults broke the delay assumptions:",
                  file=sys.stderr)
            print(f"  {exc}", file=sys.stderr)
            return 1
        verify_certificate(result)
        print(f"topology:           {topo.name}")
        print(f"engine backend:     {synchronizer.backend}")
        print_run_summary(sim.last_run_summary)
        print(f"optimal precision:  {result.precision:.4f}  "
              f"(= A^max, certified)")
        print(f"realized spread:    "
              f"{realized_spread(alpha.start_times(), result.corrections):.4f}")
        print("corrections:")
        for p, x in sorted(
            result.corrections.items(), key=lambda kv: repr(kv[0])
        ):
            print(f"  processor {p}: {x:+.4f}")
        cycle = result.components[0].critical_cycle
        print(f"critical cycle (optimality witness): {cycle}")
        if result.is_degraded:
            print("degraded result:")
            for line in result.degraded.lines():
                print(f"  {line}")
        if args.timings:
            stats = synchronizer.engine.stats
            print(f"engine: {synchronizer.backend}")
            for stage, seconds in sorted(stats.timings.items()):
                print(f"  {stage}: {seconds * 1e3:.3f} ms")
    return 0


def _cmd_record(args: argparse.Namespace) -> int:
    """Simulate a scenario and archive it as system.json + trace.json."""
    from pathlib import Path

    from repro.analysis.system_io import save_system
    from repro.analysis.trace import save_execution

    with observability(args, force=args.with_telemetry) as recorder:
        out = Path(args.directory)
        scenario = build_scenario(args.scenario, args.size, args.seed)
        telemetry = None
        if args.with_telemetry:
            from repro.analysis.trace import telemetry_to_dict
            from repro.obs import FlowLog
            from repro.obs.timeline import replay_online

            flow_log = FlowLog()
            recorder.add_observer(flow_log)
            alpha = scenario.run()
            replay = replay_online(scenario.system, alpha)
            telemetry = telemetry_to_dict(
                flow_log=flow_log, timeline=replay.timeline
            )
        else:
            alpha = scenario.run()
        save_system(scenario.system, out / "system.json")
        save_execution(alpha, out / "trace.json", telemetry=telemetry)
        print(f"recorded {scenario.name}: "
              f"{len(alpha.message_records())} messages"
              + (" (+telemetry)" if telemetry is not None else ""))
        print_run_summary(scenario.last_run_summary)
        print(f"  system: {out / 'system.json'}")
        print(f"  trace:  {out / 'trace.json'}")
    return 0


def _cmd_sync_trace(args: argparse.Namespace) -> int:
    """Synchronize an archived trace against an archived system."""
    from repro.analysis.diagnosis import diagnose
    from repro.analysis.system_io import load_system
    from repro.analysis.trace import load_execution
    from repro.core.synchronizer import ClockSynchronizer
    from repro.core.optimality import verify_certificate

    with observability(args):
        try:
            system = load_system(args.system)
            alpha = load_execution(args.trace)
        except (OSError, ValueError) as exc:
            print(f"cannot load archive: {exc}", file=sys.stderr)
            return 2
        views = alpha.views()

        diagnosis = diagnose(system, views)
        if not diagnosis.consistent:
            print("WARNING: views are inconsistent with the declared "
                  "assumptions;")
            print(f"  convicted links: {list(diagnosis.convicted)}")
            print(f"  suspect links:   {list(diagnosis.suspects)}")
            from repro.analysis.diagnosis import synchronize_excluding

            result = synchronize_excluding(
                system, views, diagnosis.excluded_links
            )
            print("  synchronizing the remaining links only:")
        else:
            synchronizer = ClockSynchronizer(system)
            result = synchronizer.from_views(views)
            verify_certificate(result)
            if args.timings:
                stats = synchronizer.engine.stats
                print(f"engine: {synchronizer.backend}")
                for stage, seconds in sorted(stats.timings.items()):
                    print(f"  {stage}: {seconds * 1e3:.3f} ms")

        print(f"precision: {result.precision:.6g}"
              + ("  (certified optimal)" if diagnosis.consistent else ""))
        print()
        from repro.analysis.report import sync_report

        for table in sync_report(result):
            table.show()
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    """Write a template fault plan, or validate one against a scenario."""
    from repro.faults.plan import (
        FaultPlanError,
        dump_fault_plan,
        example_plan,
        load_fault_plan,
    )

    if args.action == "template":
        path = dump_fault_plan(example_plan(), args.path)
        print(f"template fault plan written: {path}")
        print("edit the edge/processor ids for your topology, then:")
        print(f"  repro-clocksync faults validate {path}")
        print(f"  repro-clocksync demo --faults {path}")
        return 0
    try:
        plan = load_fault_plan(args.path)
    except FaultPlanError as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return 1
    print(f"plan {plan.name!r} (seed {plan.seed}): "
          f"{len(plan.faults)} fault(s)")
    for kind, faults in sorted(plan.by_kind().items()):
        print(f"  {kind}: {len(faults)}")
    scenario = build_scenario(args.scenario, args.size, args.seed)
    try:
        plan.validate_for(scenario.system)
    except FaultPlanError as exc:
        print(f"INVALID for {scenario.name}: {exc}", file=sys.stderr)
        return 1
    print(f"valid for scenario {scenario.name} "
          f"({scenario.system.topology.name})")
    return 0


def register_demo(sub) -> None:
    p_demo = sub.add_parser("demo", help="run the quickstart demo")
    add_faults_argument(p_demo)
    add_obs_arguments(p_demo)
    p_demo.set_defaults(func=_cmd_demo)


def register_faults(sub) -> None:
    p_faults = sub.add_parser(
        "faults",
        help="write or validate fault plans for --faults PLAN.json",
    )
    p_faults.add_argument(
        "action", choices=["template", "validate"],
        help="'template' writes an example plan to PATH; 'validate' "
        "parses PATH and checks it against a scenario's topology",
    )
    p_faults.add_argument("path", metavar="PATH", help="fault plan JSON file")
    p_faults.add_argument(
        "--scenario", choices=["bounded", "hetero"], default="bounded",
        help="scenario to validate against (default: bounded)",
    )
    p_faults.add_argument("--size", type=int, default=5, help="ring size")
    p_faults.add_argument("--seed", type=int, default=0)
    p_faults.set_defaults(func=_cmd_faults)


def register_record(sub) -> None:
    p_record = sub.add_parser(
        "record", help="simulate a scenario and archive system + trace"
    )
    p_record.add_argument("directory", help="output directory")
    p_record.add_argument(
        "--scenario", choices=["bounded", "hetero"], default="bounded"
    )
    p_record.add_argument("--size", type=int, default=5, help="ring size")
    p_record.add_argument("--seed", type=int, default=0)
    p_record.add_argument(
        "--with-telemetry",
        action="store_true",
        help="embed message flows + online-convergence timeline in the "
        "trace (writes trace format v2)",
    )
    add_obs_arguments(p_record, timings=False)
    p_record.set_defaults(func=_cmd_record)


def register_sync_trace(sub) -> None:
    p_sync = sub.add_parser(
        "sync-trace",
        help="synchronize an archived trace against an archived system",
    )
    p_sync.add_argument("system", help="path to system.json")
    p_sync.add_argument("trace", help="path to trace.json")
    add_obs_arguments(p_sync)
    p_sync.set_defaults(func=_cmd_sync_trace)
