"""The four workloads, their correctness gates, and the metrics they yield.

Each workload builds its inputs from the seed (timed as set-up, several
times, median reported), runs ops for the requested seconds, checks the
outputs, and returns an :class:`Outcome`.  An untraced run measures the
end-to-end metrics; a traced run measures half the time untraced and
half with every layer of :data:`e2e.trace.LAYERS` wrapped, which gives
the per-layer self times and the tracing overhead from one run.

Closed-loop workloads always finish the round they are in (a batch
cycle, an online pass, a campaign chunk), so every run measures the
same mix of ops, and they keep going until every percentile the run
reports has ten samples beyond it.  Traced runs alternate untraced and
traced rounds.

The end-to-end times are scaled to a reference host speed (see
``hostspeed``): each op, round and set-up is timed next to probes of a
fixed task, and its wall time is multiplied by the scale they give.

``peak_rss_mb`` is the process's lifetime high-water mark, so a run
measures one workload per process (``run.py`` starts a process for each
when asked for several).
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import select
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.obs import Recorder, recording

from .hostspeed import HOST
from .loadgen import LoadReport, run_open_loop
from .stats import min_samples, percentile
from .trace import LAYERS, OP, Tracer, self_times, traced

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Measuring stops after the round that passes this many seconds, so a
#: pathological slowdown still ends a run within 180 seconds.
MAX_MEASURE_S = 100.0


@dataclass
class Phase:
    """One measured stretch of ops (untraced or traced)."""

    #: wall seconds of each completed op.
    latencies: List[float] = field(default_factory=list)
    #: the host-speed scale (``HostSpeed.scale``) when each op ran.
    scales: List[float] = field(default_factory=list)
    failed: int = 0
    wall: float = 0.0
    #: (ops completed, scaled seconds) of each round: a batch cycle, an
    #: online pass, a campaign chunk, a live segment.
    rounds: List[Tuple[int, float]] = field(default_factory=list)
    #: layer -> (calls, self seconds); traced phases only.
    layers: Dict[str, Tuple[int, float]] = field(default_factory=dict)
    #: the metrics recorder's counters; traced phases only.
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def ops(self) -> int:
        return len(self.latencies)

    @property
    def attempted(self) -> int:
        return len(self.latencies) + self.failed

    def record(self, latencies: Sequence[float], scale: float) -> None:
        """Add ops timed elsewhere, all at one host-speed scale."""
        self.latencies.extend(latencies)
        self.scales.extend([scale] * len(latencies))

    def op(self, function: Callable, *args, tracer: Optional[Tracer] = None):
        """Time one call; a raised exception counts as a failed op."""
        call = function if tracer is None else tracer.wrap(OP, function)
        HOST.maybe_probe()
        start = time.perf_counter()
        try:
            result = call(*args)
        except Exception:
            if not self.failed:
                traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        self.record([time.perf_counter() - start], HOST.scale())
        return result


@dataclass
class Outcome:
    """Everything one workload run measured and checked."""

    setup: List[float]
    untraced: Phase
    traced: Optional[Phase]
    rss_kb: int
    checks: Dict[str, bool]
    #: quantile reported as ``latency_tail_ms``.
    tail: float
    #: per-layer values only this workload can measure.
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def phases(self) -> List[Phase]:
        return [p for p in (self.untraced, self.traced) if p is not None]

    @property
    def attempted(self) -> int:
        return sum(p.attempted for p in self.phases)

    @property
    def failed(self) -> int:
        return sum(p.failed for p in self.phases)

    @property
    def correct(self) -> bool:
        return all(self.checks.values())


Round = Callable[[Phase, Optional[Tracer]], None]


def timed_setup(build: Callable[[], object], repeats: int):
    """Run ``build`` ``repeats`` times; return (scaled seconds each, last value)."""
    times, value = [], None
    for _ in range(max(repeats, 1)):
        value, seconds, scale = HOST.around(build)
        times.append(seconds * scale)
    return times, value


def _timed_round(run_round: Round, phase: Phase, tracer=None) -> None:
    ops, start = phase.ops, time.perf_counter()
    run_round(phase, tracer)
    seconds = time.perf_counter() - start
    phase.wall += seconds
    scales = phase.scales[ops:]
    scale = statistics.median(scales) if scales else HOST.scale()
    phase.rounds.append((phase.ops - ops, seconds * scale))


def measure(run_round: Round, seconds: float, trace: bool, tail: float):
    """Whole rounds until ``seconds`` have passed; (untraced, traced).

    Untraced rounds continue until the median, and in a traced run also
    the ``tail`` quantile (``latency_tail_ms``), has ten samples beyond
    it.  With ``trace`` every untraced round is followed by a traced
    one, so both halves see the same machine: the calibration host's
    speed drifts by tens of percent within seconds, which would
    otherwise swamp the tracing overhead and the reconciliation.
    """
    untraced = Phase()
    traced_phase = Phase() if trace else None
    tracer, recorder = Tracer(), Recorder()
    floor = min_samples(tail if trace else 0.5)
    start = time.perf_counter()
    while True:
        _timed_round(run_round, untraced)
        if traced_phase is not None:
            with traced(tracer), recording(recorder):
                _timed_round(run_round, traced_phase, tracer)
        elapsed = time.perf_counter() - start
        done = elapsed >= seconds and untraced.attempted >= floor
        if done or elapsed >= MAX_MEASURE_S:
            break
    if traced_phase is not None:
        traced_phase.layers = self_times(tracer.spans)
        traced_phase.counters = recorder.registry.counters()
    return untraced, traced_phase


def peak_rss_kb(children: bool = False) -> int:
    """This process's peak RSS since it started (and its children's)."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        rss = max(rss, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return rss


# ----------------------------------------------------------------------
# batch: repro.run on n=128 executions
# ----------------------------------------------------------------------

#: Probe rounds per link in each batch execution.
BATCH_PROBES = 2
#: A traced run's 10 s untraced half makes ~200 calls: p99 would have 2
#: samples beyond it, p90 has 20.
BATCH_TAIL = 0.90


@dataclass(frozen=True)
class Batch:
    """Closed loop, one caller: ``repro.run(system, views)``, certify on.

    The offline path.  It cycles through ``inputs`` executions of a
    heterogeneous random graph and spends its time in the batch kernels
    (SHIFTS, Lemma 6.1 estimates, the certificate, closure); it never
    touches incremental repair or the live service.
    """

    n: int = 128
    link_prob: float = 0.05
    inputs: int = 4
    setup_repeats: int = 3

    def run(self, seed: int, seconds: float, trace: bool) -> Outcome:
        import repro
        from repro import CertificateError, random_connected, verify_certificate
        from repro.workloads import heterogeneous

        rng = random.Random(seed)
        seeds = [rng.randrange(1 << 31) for _ in range(self.inputs)]

        def build():
            inputs = []
            for s in seeds:
                scenario = heterogeneous(
                    random_connected(self.n, self.link_prob, s),
                    seed=s,
                    probes=BATCH_PROBES,
                )
                inputs.append((scenario.system, scenario.run().views()))
            return inputs

        setup, inputs = timed_setup(build, 1 if trace else self.setup_repeats)
        precisions: List[set] = [set() for _ in inputs]
        last: List[object] = [None] * len(inputs)

        def run_round(phase: Phase, tracer: Optional[Tracer]) -> None:
            for i, (system, views) in enumerate(inputs):
                result = phase.op(repro.run, system, views, tracer=tracer)
                if result is not None:
                    precisions[i].add(result.precision)
                    last[i] = result

        run_round(Phase(), None)  # warm-up: lazy imports, allocator
        untraced, traced_phase = measure(run_round, seconds, trace, BATCH_TAIL)
        rss = peak_rss_kb()

        def certified(result) -> bool:
            try:
                verify_certificate(result)
            except CertificateError:
                return False
            return True

        outcome = Outcome(setup, untraced, traced_phase, rss, {}, BATCH_TAIL)
        outcome.checks = {
            "no op raised": outcome.failed == 0,
            "every result certified": all(
                r is not None and certified(r) for r in last
            ),
            "one precision per input": all(len(p) == 1 for p in precisions),
        }
        return outcome


# ----------------------------------------------------------------------
# online: observe + refresh per message
# ----------------------------------------------------------------------

def delivery_stream(alpha, views) -> List[Tuple[object, object, float, float]]:
    """``(sender, receiver, send_clock, recv_clock)`` in delivery order.

    Clock readings come from the views (what the processors saw); the
    order is the outside observer's (receive real time, uid tiebreak).
    """
    sends: Dict[int, float] = {}
    for view in views.values():
        sends.update(view.send_clock_times())
    receives = {p: view.receive_clock_times() for p, view in views.items()}
    records = sorted(
        alpha.message_records().values(),
        key=lambda r: (r.receive_real_time, r.message.uid),
    )
    return [
        (
            r.message.sender,
            r.message.receiver,
            sends[r.message.uid],
            receives[r.message.receiver][r.message.uid],
        )
        for r in records
    ]


#: Streaming repairs the closure incrementally, which adds in another
#: order than the full closure of ``from_views``: corrections then differ
#: in the last bits.  Over 140 seeds the largest difference was 2.8e-13
#: (40 ulps of the ~40 s clock readings the path sums are made of), so
#: the gate allows 35 times that and still trips on a 1e-10 error.
REL_TOL = 1e-11


def _close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def online_matches(result, reference) -> bool:
    """Precision and every correction equal to the batch reference."""
    if not _close(result.precision, reference.precision):
        return False
    if result.corrections.keys() != reference.corrections.keys():
        return False
    return all(
        _close(result.corrections[p], value)
        for p, value in reference.corrections.items()
    )


def _observe_and_refresh(online, sender, receiver, send_clock, recv_clock):
    online.observe_timestamps(sender, receiver, send_clock, recv_clock)
    return online.result()


#: Probe rounds per link in the streamed execution (~900 messages at n=64).
ONLINE_PROBES = 3
#: Messages streamed untimed through a throwaway synchronizer first, so
#: lazy imports are not timed.
ONLINE_WARMUP_MESSAGES = 50
#: A traced run's 10 s untraced half has ~1500 ops: p99 has 15 beyond it.
ONLINE_TAIL = 0.99


@dataclass(frozen=True)
class Online:
    """Closed loop: one execution streamed through ``OnlineSynchronizer``.

    Write-heavy: every message is one ``observe_timestamps`` followed by
    ``result()``, on a fresh synchronizer per pass, so most observations
    invalidate the cached result.  Exercises incremental closure repair
    and per-component SHIFTS; bypasses Lemma 6.1 on views, the full
    closure (after the first refresh) and the certificate.
    """

    n: int = 64
    link_prob: float = 0.05
    setup_repeats: int = 7

    def run(self, seed: int, seconds: float, trace: bool) -> Outcome:
        from repro import ClockSynchronizer, random_connected
        from repro.extensions.online import OnlineSynchronizer
        from repro.workloads import heterogeneous

        s = random.Random(seed).randrange(1 << 31)

        def build():
            scenario = heterogeneous(
                random_connected(self.n, self.link_prob, s),
                seed=s,
                probes=ONLINE_PROBES,
            )
            alpha = scenario.run()
            views = alpha.views()
            return scenario.system, views, delivery_stream(alpha, views)

        setup, (system, views, stream) = timed_setup(
            build, 1 if trace else self.setup_repeats
        )
        finals = []

        def run_round(phase: Phase, tracer: Optional[Tracer]) -> None:
            online = OnlineSynchronizer(system, backend="numpy")
            for message in stream:
                phase.op(_observe_and_refresh, online, *message, tracer=tracer)
            finals.append(online.result())

        warm = OnlineSynchronizer(system, backend="numpy")
        for message in stream[:ONLINE_WARMUP_MESSAGES]:
            _observe_and_refresh(warm, *message)
        untraced, traced_phase = measure(run_round, seconds, trace, ONLINE_TAIL)
        rss = peak_rss_kb()
        reference = ClockSynchronizer(system, backend="numpy").from_views(views)
        outcome = Outcome(setup, untraced, traced_phase, rss, {}, ONLINE_TAIL)
        outcome.checks = {
            "no op raised": outcome.failed == 0,
            "every pass equal to from_views": bool(finals)
            and all(online_matches(f, reference) for f in finals),
        }
        return outcome


# ----------------------------------------------------------------------
# live: open-loop queries against a LiveCluster in a child process
# ----------------------------------------------------------------------

class LiveChild:
    """One ``e2e.live_server`` process, started up to its ready line."""

    def __init__(self, *args: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE.parent)])
        self._buffer = b""
        self.proc = subprocess.Popen(
            [sys.executable, "-m", f"{__package__}.live_server", *args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=ROOT,
            env=env,
        )
        try:
            ready = self._read(timeout=60.0)
        except BaseException:
            self.close()
            raise
        self.address = tuple(ready["address"])
        self.processors = list(ready["processors"])

    def _read(self, timeout: float) -> dict:
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("live server did not answer in time")
            readable, _, _ = select.select([fd], [], [], remaining)
            if readable:
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    raise RuntimeError(
                        f"live server exited with code {self.proc.wait()}"
                    )
                self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return json.loads(line)

    def stop(self) -> dict:
        """Quiesce, audit and report (see ``live_server``)."""
        self.proc.stdin.write(b"stop\n")
        self.proc.stdin.flush()
        return self._read(timeout=150.0)

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=15.0)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


#: Peers of the live cluster (complete graph).
LIVE_PEERS = 4
#: Probe interval and query rate keep the server well short of busy
#: even when the host runs at half speed.  At 20 ms probes and 2000
#: queries/s it ran at 0.43 to 0.81 busy as the host's speed drifted, and
#: in the slow stretches queueing took the p50 from 0.3 ms to 1.7 ms
#: (ten-run spread 0.63).  At 1000 queries/s it was 0.57 busy on a host
#: running at two thirds of its speed, and four runs in ten still queued
#: (p50 up to 2.6 ms, spread 0.66).
LIVE_INTERVAL = 0.05
LIVE_RATE = 500.0
#: Client sockets of the load generator (one per CPU of a 2-CPU host).
LIVE_SOCKETS = 2
#: Seconds after its due time at which an unanswered query has failed.
LIVE_TIMEOUT = 0.5
#: Load is spread over fresh clusters of at most this many seconds: the
#: replay audit reruns the batch pipeline on the log for every served
#: cut, so it grows with the square of a cluster's uptime (at 2000
#: queries/s, 20 ms probes: 1.9 s after 5 s of load, 17.7 s after 15 s).
LIVE_SEGMENT_S = 5.0
#: A traced run's 10 s untraced half has 5000 queries: p99 has 50 beyond
#: it.
LIVE_TAIL = 0.99


class Segment(NamedTuple):
    """One fresh cluster under load."""

    #: scaled seconds from spawn to the ready line.
    setup_s: float
    load: LoadReport
    #: the server child's report (see ``live_server``).
    report: dict
    #: the host-speed scale of the load.
    scale: float


@dataclass(frozen=True)
class Live:
    """Open loop at a fixed rate against the correction server.

    Read-heavy: probes keep writing observations while queries are
    served mostly from the freshness cache.  The server runs in a child
    process so the load generator never shares its interpreter or event
    loop; the time goes to the wire codec, the transport and the loop.
    """

    #: Fewest boots in an untraced run; set-up is their median.
    setup_repeats: int = 3

    def _segment(self, seed, seconds, trace, clients):
        """One fresh cluster under ``seconds`` of load."""
        child, boot, boot_scale = HOST.around(
            lambda: LiveChild("--seed", str(seed), "--trace", "1" if trace else "0")
        )
        try:
            load, _, scale = HOST.around(
                lambda: run_open_loop(
                    child.address,
                    clients(child.processors),
                    rate=LIVE_RATE,
                    duration=seconds,
                    sockets=LIVE_SOCKETS,
                    timeout=LIVE_TIMEOUT,
                )
            )
            report = child.stop()
        finally:
            child.close()
        return Segment(boot * boot_scale, load, report, scale)

    def run(self, seed: int, seconds: float, trace: bool) -> Outcome:
        rng = random.Random(seed)

        def clients(processors):
            order = list(processors) * 16
            rng.shuffle(order)
            return order

        # Enough queries in each half for ten samples beyond the tail.
        half = max(
            seconds / 2 if trace else seconds,
            1.2 * min_samples(LIVE_TAIL) / LIVE_RATE,
        )
        count = max(
            math.ceil(half / LIVE_SEGMENT_S), 1 if trace else self.setup_repeats
        )
        modes = (False, True) if trace else (False,)
        segments = {mode: [] for mode in modes}
        for _ in range(count):  # interleaved, like the closed loops
            for mode in modes:
                segments[mode].append(
                    self._segment(seed, half / count, mode, clients)
                )
        untraced = _merge(segments[False])
        traced_phase = _merge(segments[True]) if trace else None
        reports = [s.report for mode in modes for s in segments[mode]]
        outcome = Outcome(
            [s.setup_s for s in segments[False]],
            untraced,
            traced_phase,
            max(s.report["maxrss_kb"] for s in segments[False]),
            {},
            LIVE_TAIL,
        )
        outcome.checks = {
            "no query failed": outcome.failed == 0,
            "replay audit passes": all(r["replay_ok"] for r in reports),
            "every ok answer audited": sum(r["replay_checked"] for r in reports)
            >= sum(p.ops for p in outcome.phases),
            "transport drained": all(r["drained"] for r in reports),
            "no observation lost": all(
                r["lost_observations"] == 0 for r in reports
            ),
        }
        for report in reports:
            if not report["replay_ok"]:
                print(report.get("replay_detail", ""), file=sys.stderr)
        if trace:
            traced_reports = [s.report for s in segments[True]]
            cpu = sum(r["cpu_s"] for r in traced_reports)
            sent = retransmits = 0.0
            for report in traced_reports:
                sent += report["transport"].get("segments_sent", 0.0)
                retransmits += report["transport"].get("retransmits", 0.0)
            lateness = [late for s in segments[True] for late in s.load.lateness]
            ops = max(traced_phase.ops, 1)
            layers_s = sum(spent for _, spent in traced_phase.layers.values())
            outcome.extra = {
                "live.server.busy_ratio": cpu
                / sum(r["wall_s"] for r in traced_reports),
                "live.server.request_p50_ms": statistics.median(
                    r["request_p50_s"] for r in traced_reports
                ) * 1e3,
                "loadgen.late_p50_ms": percentile(lateness, 0.5) * 1e3,
                "loadgen.late_p99_ms": percentile(lateness, 0.99) * 1e3,
                "transport.retransmit_ratio": _ratio(retransmits, sent),
                # The server's CPU per query is the work its layers share.
                "op.unattributed_ms": (cpu - layers_s) * 1e3 / ops,
            }
        return outcome


def _merge(segments: Sequence[Segment]) -> Phase:
    """One phase from live segments: ok latencies, failures, layers."""
    phase = Phase()
    for _, load, report, scale in segments:
        ops = phase.ops
        phase.wall += load.wall
        phase.failed += load.failed
        phase.record(
            [
                latency
                for latency, answer in zip(load.latencies, load.answers)
                if answer.status == "ok"
            ],
            scale,
        )
        # Unscaled: an open loop's rate is set by its schedule, not the host.
        phase.rounds.append((phase.ops - ops, load.wall))
        for name, (calls, spent) in report.get("layers", {}).items():
            before = phase.layers.get(name, (0, 0.0))
            phase.layers[name] = (before[0] + calls, before[1] + spent)
        for name, value in report.get("counters", {}).items():
            phase.counters[name] = phase.counters.get(name, 0.0) + value
    return phase


# ----------------------------------------------------------------------
# campaign: the sharded runner over a builders x rings x seeds grid
# ----------------------------------------------------------------------

#: Pool workers of the untraced run: one per CPU of a 2-CPU host.
CAMPAIGN_WORKERS = 2
#: p99 would need 1000 cells in each half of a traced run (~15 s at one
#: worker); p90 needs 100.
CAMPAIGN_TAIL = 0.90


@dataclass(frozen=True)
class Sweep:
    """Closed loop over campaign chunks on the process-pool runner.

    Certify on, no cache.  Each chunk is the full builders x rings grid
    for the next ``seeds_per_chunk`` seeds, so the time goes to the
    simulator, the runner and small-n pipelines, and the ring sizes
    straddle the automatic python/numpy backend switch.  The traced run
    is in-process (``workers=1``) so the wrappers see every cell.
    """

    sizes: Tuple[int, ...] = (8, 16, 32, 64)
    seeds_per_chunk: int = 8
    #: The set-up is a ~30 ms sweep whose single runs scatter by +-20%.
    setup_repeats: int = 11

    def run(self, seed: int, seconds: float, trace: bool) -> Outcome:
        from repro.experiments.common import (
            bounded_ring_builder,
            heterogeneous_builder,
            round_trip_bias_builder,
        )
        from repro.graphs import ring
        from repro.workloads import Campaign

        builders = (
            ("bounded", bounded_ring_builder),
            ("heterogeneous", heterogeneous_builder),
            ("round-trip-bias", round_trip_bias_builder),
        )
        topologies = [ring(n) for n in self.sizes]
        base = random.Random(seed).randrange(1 << 24) * 1000
        workers = 1 if trace else CAMPAIGN_WORKERS
        chunk_seeds: List[Sequence[int]] = []

        def grid(seeds: Sequence[int]) -> "Campaign":
            campaign = Campaign(seeds=seeds, certify=True)
            for name, builder in builders:
                campaign.add(name, builder)
            return campaign

        def sweep(seeds: Sequence[int], workers_: int):
            campaign = grid(seeds)
            outcome = campaign.run_results(topologies, workers=workers_)
            return outcome, campaign.summarize(outcome.results).format()

        def warm():
            grid([base - 1]).run_results(topologies[:1], workers=workers)

        setup, _ = timed_setup(warm, 1 if trace else self.setup_repeats)
        first_table: List[str] = []

        def run_round(phase: Phase, tracer: Optional[Tracer]) -> None:
            start = base + len(chunk_seeds) * self.seeds_per_chunk
            seeds = range(start, start + self.seeds_per_chunk)
            chunk_seeds.append(seeds)
            cells = len(builders) * len(topologies) * len(seeds)
            run = sweep if tracer is None else tracer.wrap(OP, sweep)
            try:
                (outcome, table), _, scale = HOST.around(lambda: run(seeds, workers))
            except Exception:
                traceback.print_exc(file=sys.stderr)
                phase.failed += cells
                return
            if not first_table:
                first_table.append(table)
            phase.record([r.seconds for r in outcome.results if r.sound], scale)
            phase.failed += len(outcome.quarantined) + sum(
                not r.sound for r in outcome.results
            )

        untraced, traced_phase = measure(run_round, seconds, trace, CAMPAIGN_TAIL)
        rss = peak_rss_kb(children=True)
        other = CAMPAIGN_WORKERS if workers == 1 else 1
        _, again = sweep(chunk_seeds[0], other)
        outcome = Outcome(setup, untraced, traced_phase, rss, {}, CAMPAIGN_TAIL)
        outcome.checks = {
            "no cell failed or quarantined": outcome.failed == 0,
            f"table equal to a workers={other} run": bool(first_table)
            and first_table[0] == again,
        }
        if trace:
            outcome.extra["runner.worker_busy_ratio"] = sum(
                untraced.latencies
            ) / (workers * untraced.wall)
        return outcome


WORKLOADS = {
    "batch": Batch(),
    "online": Online(),
    "live": Live(),
    "campaign": Sweep(),
}


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Layers fast enough per call to be reported in microseconds.
MICRO = {
    "extensions.online.observe",
    "live.wire.decode",
    "live.wire.encode",
    "live.server.datagram",
    "transport.on_datagram",
    "live.peer.datagram",
    "live.trace.append",
}


def _self_metric(layer: str) -> Tuple[str, str]:
    unit = "us" if layer in MICRO else "ms"
    return f"{layer}.self_{unit}", unit


#: Per-layer metrics: name -> unit.
PER_LAYER = dict(
    [_self_metric(name) for name, _, _ in LAYERS]
    + [
        ("latency_tail_ms", "ms"),
        ("host.reference_ms", "ms"),
        ("engine.shifts.calls", "calls/op"),
        ("online.incremental_ratio", "ratio"),
        ("live.cache_hit_ratio", "ratio"),
        ("live.refreshes", "count"),
        ("live.coalesced", "count"),
        ("transport.retransmit_ratio", "ratio"),
        ("live.server.busy_ratio", "ratio"),
        ("live.server.request_p50_ms", "ms"),
        ("loadgen.late_p50_ms", "ms"),
        ("loadgen.late_p99_ms", "ms"),
        ("runner.worker_busy_ratio", "ratio"),
        ("op.untraced_ms", "ms"),
        ("op.traced_ms", "ms"),
        ("op.unattributed_ms", "ms"),
        ("trace.overhead_ratio", "ratio"),
    ]
)


def scaled_latencies(phase: Phase) -> List[float]:
    """Each op's wall seconds times the host-speed scale it ran at."""
    return [t * s for t, s in zip(phase.latencies, phase.scales)]


def end_to_end(outcome: Outcome) -> Dict[str, float]:
    """The end-to-end metrics of an untraced run, in scaled time."""
    phase = outcome.untraced
    return {
        "setup_s": statistics.median(outcome.setup),
        "ops_per_s": sum(ops for ops, _ in phase.rounds)
        / sum(seconds for _, seconds in phase.rounds),
        "latency_p50_ms": percentile(scaled_latencies(phase), 0.5) * 1e3,
        "peak_rss_mb": outcome.rss_kb / 1024.0,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(outcome: Outcome) -> Dict[str, float]:
    """The per-layer metrics of a traced run; layers not reached read 0."""
    untraced, phase = outcome.untraced, outcome.traced
    ops = max(phase.ops, 1)
    metrics = {name: 0.0 for name in PER_LAYER}
    attributed_ms = 0.0
    for layer, (calls, seconds) in phase.layers.items():
        if layer == OP:
            continue
        name, unit = _self_metric(layer)
        metrics[name] = seconds * (1e6 if unit == "us" else 1e3) / ops
        attributed_ms += seconds * 1e3 / ops
    metrics["latency_tail_ms"] = (
        percentile(scaled_latencies(untraced), outcome.tail) * 1e3
    )
    metrics["host.reference_ms"] = statistics.median(HOST.samples) * 1e3
    metrics["engine.shifts.calls"] = (
        phase.layers.get("engine.shifts", (0, 0.0))[0] / ops
    )
    c = phase.counters.get
    repairs = c("online.incremental_repairs", 0.0)
    metrics["online.incremental_ratio"] = _ratio(
        repairs, repairs + c("online.full_recomputes", 0.0)
    )
    metrics["live.cache_hit_ratio"] = _ratio(
        c("live.server.cache_exact", 0.0) + c("live.server.cache_fresh", 0.0),
        c("live.server.queries", 0.0),
    )
    metrics["live.refreshes"] = c("live.server.refreshes", 0.0)
    metrics["live.coalesced"] = c("live.server.coalesced", 0.0)
    metrics["op.untraced_ms"] = statistics.fmean(untraced.latencies) * 1e3
    metrics["op.traced_ms"] = statistics.fmean(phase.latencies) * 1e3
    metrics["trace.overhead_ratio"] = (
        metrics["op.traced_ms"] / metrics["op.untraced_ms"] - 1.0
    )
    metrics["op.unattributed_ms"] = metrics["op.traced_ms"] - attributed_ms
    metrics.update(outcome.extra)
    return metrics


__all__ = [
    "END_TO_END",
    "PER_LAYER",
    "WORKLOADS",
    "Batch",
    "Live",
    "Online",
    "Outcome",
    "Phase",
    "Sweep",
    "delivery_stream",
    "end_to_end",
    "online_matches",
    "per_layer",
]
