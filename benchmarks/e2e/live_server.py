"""The live workload's system under test: one ``LiveCluster`` in a child.

Run as ``python -m e2e.live_server`` with ``src`` and ``benchmarks`` on
``PYTHONPATH``.  Protocol over the pipes, one JSON object per line:

1. boot the cluster, wait until it certifies a finite precision, then
   print ``{"address": [host, port], "processors": [...]}``;
2. serve until a line arrives on stdin.  ``stop`` quiesces the probes,
   drains the transport, runs the replay audit and prints the report;
   end of input exits without one (used for discarded set-up boots).

With ``--trace 1`` the layer wrappers and a metrics recorder are
installed before the cluster boots; only spans and counters between the
ready line and ``stop`` are reported, so neither the warm-up nor the
audit is attributed to serving.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import resource
import sys
import time
from contextlib import ExitStack

from repro.live.cluster import ClusterConfig, LiveCluster
from repro.obs import Recorder, quantile, recording

from e2e.trace import Tracer, self_times, traced
from e2e.workloads import LIVE_INTERVAL, LIVE_PEERS

#: Observations admitted before the cluster is declared ready.
WARMUP_OBSERVATIONS = 24


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


async def _serve(args, layers: ExitStack, tracer, recorder) -> None:
    cluster = LiveCluster(
        ClusterConfig(
            peers=LIVE_PEERS, interval=LIVE_INTERVAL, net_seed=args.seed
        )
    )
    async with cluster:
        server = cluster.server
        await cluster.wait_for_observations(WARMUP_OBSERVATIONS)
        deadline = time.monotonic() + 10.0
        while not math.isfinite(server.online.result().precision):
            if time.monotonic() > deadline:
                raise TimeoutError("cluster never certified a finite precision")
            await asyncio.sleep(LIVE_INTERVAL)
        if tracer is not None:
            tracer.spans.clear()  # no wrapped call is open between awaits
        counters_before = recorder.registry.counters() if recorder else {}
        _emit(
            {
                "address": list(server.address),
                "processors": list(cluster.topology.nodes),
            }
        )
        wall0, cpu0 = time.perf_counter(), time.process_time()
        line = await asyncio.get_running_loop().run_in_executor(
            None, sys.stdin.readline
        )
        if line.strip() != "stop":
            return
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        report = {"wall_s": wall, "cpu_s": cpu, "maxrss_kb": maxrss_kb}
        if tracer is not None:
            report["layers"] = self_times(tracer.spans)
            after = recorder.registry.counters()
            report["counters"] = {
                name: value - counters_before.get(name, 0.0)
                for name, value in after.items()
            }
            histogram = recorder.registry.get("live.server.request_seconds")
            report["request_p50_s"] = (
                quantile(histogram, 0.5) if histogram is not None else 0.0
            )
        cluster.pause_probing()
        report["drained"] = await cluster.drain_transport(5.0)
        transport = cluster.transport_summary()
        report["lost_observations"] = transport["lost_observations"]
        report["transport"] = transport["totals"]
        layers.close()  # restore the traced layers before auditing
        replay = cluster.verify_replay()
        report["replay_ok"] = replay.ok
        report["replay_checked"] = replay.checked
        if not replay.ok:
            report["replay_detail"] = replay.describe()
        _emit(report)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    with ExitStack() as layers:
        tracer = recorder = None
        if args.trace:
            tracer = layers.enter_context(traced(Tracer()))
            recorder = layers.enter_context(recording(Recorder()))
        asyncio.run(_serve(args, layers, tracer, recorder))
    return 0


if __name__ == "__main__":
    sys.exit(main())
