"""``live`` and ``serve`` subcommands: the real-socket runtime.

``live smoke`` boots a whole loopback cluster (peers + correction
server), drives a query load, audits the live == offline replay
contract and prints (or JSON-dumps) the summary -- the CI ``live`` job
gates on its exit code and thresholds.  ``live replay`` reruns a
recorded probe log through the batch pipeline.  ``serve`` runs a
foreground correction server for real peers to report to.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.cli._options import add_obs_arguments, observability


def _cmd_live_smoke(args: argparse.Namespace) -> int:
    import asyncio

    from repro.live.cluster import run_smoke
    from repro.live.transport import LossyNetwork

    net = (
        LossyNetwork(loss=args.loss, reorder=args.reorder, seed=args.net_seed)
        if args.loss or args.reorder
        else None
    )
    with observability(args, force=True):
        summary = asyncio.run(run_smoke(
            peers=args.peers,
            queries=args.queries,
            warmup_observations=args.warmup,
            interval=args.interval,
            freshness=args.freshness,
            concurrency=args.concurrency,
            net=net,
            net_seed=args.net_seed,
            drain_timeout=args.drain_timeout,
            probe_log_out=args.probe_log_out,
        ))
        if args.json:
            print(json.dumps(summary, sort_keys=True, default=str))
        else:
            _print_smoke(summary)
    transport = summary["transport"]
    if not summary["replay_ok"]:
        print("FAIL: live answers diverge from offline replay",
              file=sys.stderr)
        return 1
    if args.min_qps is not None and summary["qps"] < args.min_qps:
        print(f"FAIL: {summary['qps']:.0f} qps below the --min-qps "
              f"{args.min_qps:g} threshold", file=sys.stderr)
        return 1
    if not transport["drained"]:
        print("FAIL: transport did not drain within "
              f"{args.drain_timeout:g}s", file=sys.stderr)
        return 1
    if transport["lost_observations"] > 0:
        print(f"FAIL: {transport['lost_observations']} observations "
              "lost in transit (neither delivered nor surfaced)",
              file=sys.stderr)
        return 1
    return 0


def _print_smoke(summary: dict) -> None:
    print(f"peers:        {summary['peers']}  (complete graph, loopback UDP)")
    print(f"observations: {summary['admitted']} admitted")
    print(f"queries:      {summary['queries']}  "
          f"({summary['ok_answers']} answered ok)")
    print(f"throughput:   {summary['qps']:.0f} queries/s "
          f"({summary['duration_seconds']:.3f}s)")
    print(f"latency:      p50 {summary['request_p50_seconds'] * 1e6:.0f}us  "
          f"p99 {summary['request_p99_seconds'] * 1e6:.0f}us")
    transport = summary["transport"]
    totals = transport["totals"]
    print(f"transport:    {totals.get('handed', 0):.0f} handed  "
          f"{totals.get('retransmits', 0):.0f} retransmits  "
          f"{totals.get('give_ups', 0):.0f} give-ups  "
          f"{transport['lost_observations']} lost"
          + ("" if transport["drained"] else "  (DRAIN TIMEOUT)"))
    if "net" in transport:
        net = transport["net"]
        print(f"injected:     {net['dropped']} drops  "
              f"{net['delayed']} delays  "
              f"{net['passed']} passed")
    if transport["unreachable"]:
        print(f"unreachable:  {', '.join(transport['unreachable'])}")
    print(f"shifts:       {summary['shifts_warm_hits']} warm hits  "
          f"{summary['shifts_warm_fallbacks']} warm fallbacks")
    print(summary["replay"])
    if summary["realized_spread"] is not None:
        print(f"realized spread vs ground truth: "
              f"{summary['realized_spread']:.6g}")
    if summary["probe_log"] is not None:
        print(f"probe log written: {summary['probe_log']}")


def _complete_topology(names):
    """The complete topology over the named processors."""
    from repro.graphs.topology import Topology

    return Topology(
        name=f"live-{len(names)}",
        nodes=tuple(names),
        links=tuple(
            (p, q) for i, p in enumerate(names) for q in names[i + 1:]
        ),
    )


def _cmd_live_replay(args: argparse.Namespace) -> int:
    """Rerun a recorded probe log through the batch pipeline."""
    import repro
    from repro.live.cluster import live_system
    from repro.live.trace import ProbeLogError, load_probe_log

    with observability(args):
        try:
            log = load_probe_log(args.log)
        except (OSError, ProbeLogError) as exc:
            print(f"cannot load probe log: {exc}", file=sys.stderr)
            return 2
        processors = log.processors()
        if len(processors) < 2:
            print(f"probe log covers {len(processors)} processor(s); "
                  "nothing to synchronize", file=sys.stderr)
            return 1
        system = live_system(_complete_topology(processors))
        result = repro.run(system, args.log)
        print(f"observations: {len(log)}")
        print(f"precision:    {result.precision:.6g}  (= A^max, certified)")
        print("corrections:")
        for p, x in sorted(
            result.corrections.items(), key=lambda kv: repr(kv[0])
        ):
            print(f"  processor {p}: {x:+.6g}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run a foreground correction server for real peers to report to."""
    import asyncio

    from repro.graphs.topology import complete
    from repro.live.cluster import live_system
    from repro.live.server import start_correction_server
    from repro.live.trace import write_probe_log

    if args.processors is not None:
        names = [n.strip() for n in args.processors.split(",") if n.strip()]
        if len(names) < 2:
            print("--processors needs at least two comma-separated ids",
                  file=sys.stderr)
            return 2
        topology = _complete_topology(names)
    else:
        topology = complete(args.peers)
    system = live_system(topology)

    async def serve() -> int:
        from contextlib import ExitStack

        server = await start_correction_server(
            system,
            host=args.host,
            port=args.port,
            freshness=args.freshness,
            keep_answers=False,
        )
        with ExitStack() as stack:
            if args.serve_metrics is not None:
                from repro.obs.http import serve_telemetry

                sidecar = stack.enter_context(
                    serve_telemetry(port=args.serve_metrics, health=server)
                )
                print(f"telemetry: {sidecar.url}/metrics  "
                      f"{sidecar.url}/healthz")
            host, port = server.address
            print(f"correction server on {host}:{port}  "
                  f"({len(topology.nodes)} processors, "
                  f"freshness {args.freshness:g}s); ^C to stop")
            try:
                if args.duration is not None:
                    await asyncio.sleep(args.duration)
                else:
                    while True:
                        await asyncio.sleep(3600)
            except asyncio.CancelledError:
                pass
            finally:
                if args.probe_log_out is not None:
                    path = write_probe_log(
                        args.probe_log_out, server.probe_log
                    )
                    print(f"probe log written: {path}  "
                          f"({len(server.probe_log)} observations)")
                server.close()
        return 0

    with observability(args, force=args.serve_metrics is not None):
        try:
            return asyncio.run(serve())
        except KeyboardInterrupt:
            print()
            return 0


def register(sub) -> None:
    p_live = sub.add_parser(
        "live",
        help="live runtime: loopback cluster smoke test and probe-log "
        "replay",
    )
    live_sub = p_live.add_subparsers(dest="live_action", required=True)

    p_smoke = live_sub.add_parser(
        "smoke",
        help="boot a loopback cluster + correction server, drive a "
        "query load, audit live == offline replay equality",
    )
    p_smoke.add_argument(
        "--peers", type=int, default=4, metavar="N",
        help="cluster size (complete probe graph; default 4)",
    )
    p_smoke.add_argument(
        "--queries", type=int, default=2000, metavar="N",
        help="correction queries to drive (default 2000)",
    )
    p_smoke.add_argument(
        "--warmup", type=int, default=24, metavar="N",
        help="admitted observations to wait for before querying "
        "(default 24)",
    )
    p_smoke.add_argument(
        "--interval", type=float, default=0.01, metavar="SECONDS",
        help="probe-round interval per peer (default 0.01)",
    )
    p_smoke.add_argument(
        "--freshness", type=float, default=0.05, metavar="SECONDS",
        help="server cache freshness bound (default 0.05)",
    )
    p_smoke.add_argument(
        "--concurrency", type=int, default=8, metavar="N",
        help="concurrent query clients (default 8)",
    )
    p_smoke.add_argument(
        "--min-qps", type=float, default=None, metavar="QPS",
        help="exit 1 when the measured throughput is below QPS",
    )
    p_smoke.add_argument(
        "--loss", type=float, default=0.0, metavar="P",
        help="inject datagram loss with probability P on every "
        "transport frame (default 0)",
    )
    p_smoke.add_argument(
        "--reorder", type=float, default=0.0, metavar="P",
        help="delay (reorder) surviving datagrams with probability P "
        "(default 0)",
    )
    p_smoke.add_argument(
        "--net-seed", type=int, default=0, metavar="SEED",
        help="seed for loss injection and retransmit jitter (default 0)",
    )
    p_smoke.add_argument(
        "--drain-timeout", type=float, default=10.0, metavar="SECONDS",
        help="max wait for in-flight retransmissions to settle before "
        "the accounting audit (default 10)",
    )
    p_smoke.add_argument(
        "--probe-log-out", metavar="PATH", default=None,
        help="write the server's admitted probe log as JSONL "
        "(replayable with 'live replay')",
    )
    p_smoke.add_argument(
        "--json", action="store_true",
        help="emit the summary as one JSON object",
    )
    add_obs_arguments(p_smoke, timings=False)
    p_smoke.set_defaults(func=_cmd_live_smoke)

    p_replay = live_sub.add_parser(
        "replay",
        help="rerun a recorded probe log through the batch pipeline "
        "(the offline half of the replay-equality contract)",
    )
    p_replay.add_argument("log", metavar="LOG.jsonl", help="probe log file")
    add_obs_arguments(p_replay, timings=False)
    p_replay.set_defaults(func=_cmd_live_replay)


def register_serve(sub) -> None:
    p_serve = sub.add_parser(
        "serve",
        help="run a correction server: ingest peer probe reports over "
        "the reliable transport (framed UDP segments), answer correction "
        "queries at high QPS",
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    p_serve.add_argument(
        "--port", type=int, default=0, metavar="PORT",
        help="UDP port (default 0 = ephemeral, printed at startup)",
    )
    p_serve.add_argument(
        "--peers", type=int, default=4, metavar="N",
        help="expected cluster size, processors 0..N-1 on a complete "
        "graph (default 4)",
    )
    p_serve.add_argument(
        "--processors", metavar="A,B,C", default=None,
        help="explicit comma-separated processor ids (overrides --peers)",
    )
    p_serve.add_argument(
        "--freshness", type=float, default=0.05, metavar="SECONDS",
        help="bounded-staleness window for cached results (default 0.05)",
    )
    p_serve.add_argument(
        "--duration", type=float, default=None, metavar="SECONDS",
        help="stop after SECONDS (default: run until ^C)",
    )
    p_serve.add_argument(
        "--probe-log-out", metavar="PATH", default=None,
        help="write the admitted probe log as JSONL on shutdown",
    )
    p_serve.add_argument(
        "--serve-metrics", type=int, default=None, metavar="PORT",
        help="also serve /metrics + /healthz on 127.0.0.1:PORT "
        "(0 = ephemeral)",
    )
    add_obs_arguments(p_serve, timings=False)
    p_serve.set_defaults(func=_cmd_serve)
