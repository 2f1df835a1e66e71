"""Boot a whole live cluster on loopback: peers, server, query load.

:class:`LiveCluster` wires the pieces of :mod:`repro.live` into a
running system -- one :class:`~repro.live.server.CorrectionServer` plus
one :class:`~repro.live.peer.ProbePeer` per processor, all on ephemeral
loopback UDP ports.  Boot order matters and is handled here: bind every
endpoint first (ephemeral ports are only known after binding), then
wire the neighbour address maps, then start the probe loops.

The delay model for loopback is the paper's Model 2 with the trivial
bound: :func:`live_system` attaches ``lower_bounds_only(0.0)`` to every
link -- real loopback delays are nonnegative and tiny, and with no
upper bound the pipeline leans entirely on the bidirectional-traffic
estimates of Section 6 (Theorem 6.4's ``~A^max``), which is exactly the
regime live probing produces.

Every peer and the server own a
:class:`~repro.live.transport.SegmentChannel`: probes and reports always
ride the reliable transport (there is no raw-datagram mode), and a
:class:`~repro.live.transport.LossyNetwork` in ``net`` injects loss and
reordering in front of every frame they send.

Because the cluster injects the clock offsets, ground truth is
available: a peer with offset ``c`` has paper start time ``S = -c``,
so :func:`~repro.core.precision.realized_spread` scores the served
corrections against reality, not just against the certificate.

:func:`smoke` is the CI entry point: boot a small cluster, push a few
thousand queries through it, and return a summary with throughput,
p50/p99 request latency (from the ``live.server.request_seconds``
histogram), the replay-equality audit, and realized precision.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.precision import realized_spread
from repro.delays.bounds import lower_bounds_only
from repro.delays.system import System
from repro.graphs.topology import Topology, complete
from repro.live.clock import LiveClock
from repro.live.peer import PeerConfig, ProbePeer, start_peer
from repro.live.replay import ReplayReport, verify_replay_equality
from repro.live.server import (
    DEFAULT_FRESHNESS,
    SERVER_ID,
    CorrectionClient,
    CorrectionServer,
    start_client,
    start_correction_server,
)
from repro.live.trace import write_probe_log
from repro.live.transport import LossyNetwork, SegmentChannel
from repro.live.wire import Correction, WireId
from repro.obs.recorder import Recorder, get_recorder, recording
from repro.obs.report import quantile
from repro.transport import aggregate_stats, link_ledger


def live_system(topology: Topology) -> System:
    """The delay system a loopback/LAN cluster runs under.

    Model 2 with the trivial lower bound 0: delays are nonnegative and
    otherwise unknown.  Everything the pipeline then knows comes from
    the probes themselves (Lemma 6.1 estimates).
    """
    return System.uniform(topology, lower_bounds_only(0.0))


def default_offsets(n: int, spread: float = 0.25) -> Tuple[float, ...]:
    """Deterministic, alternating clock offsets for ``n`` peers."""
    return tuple(((-1) ** i) * spread * i / max(n - 1, 1) for i in range(n))


@dataclass
class ClusterConfig:
    """Shape and pacing of one loopback cluster."""

    peers: int = 4
    #: injected clock offsets (ground truth); default: alternating spread.
    offsets: Optional[Sequence[float]] = None
    #: seconds between probe rounds at each peer.
    interval: float = 0.01
    #: stop probing after this many rounds (``None`` = until stopped).
    rounds: Optional[int] = None
    #: the correction server's bounded-staleness window (seconds).
    freshness: float = DEFAULT_FRESHNESS
    host: str = "127.0.0.1"
    #: probe graph; default: complete graph on ``peers`` processors.
    topology: Optional[Topology] = None
    #: injected datagram loss/reordering (``None`` = honest loopback).
    net: Optional[LossyNetwork] = None
    #: seed for the retransmit jitter streams.
    net_seed: Any = 0
    #: server-side silent-peer threshold (seconds); ``None`` = off.
    peer_timeout: Optional[float] = None


@dataclass
class LoadResult:
    """Outcome of one query-load run against the cluster."""

    queries: int
    duration: float
    answers: List[Correction] = field(default_factory=list)

    @property
    def qps(self) -> float:
        return self.queries / self.duration if self.duration > 0 else 0.0

    @property
    def ok_answers(self) -> int:
        return sum(1 for a in self.answers if a.status == "ok")


class LiveCluster:
    """One correction server plus N probe peers on loopback UDP."""

    def __init__(self, config: Optional[ClusterConfig] = None) -> None:
        self.config = config or ClusterConfig()
        if self.config.peers < 2:
            raise ValueError("a live cluster needs at least 2 peers")
        self.topology = (
            self.config.topology
            if self.config.topology is not None
            else complete(self.config.peers)
        )
        offsets = (
            tuple(self.config.offsets)
            if self.config.offsets is not None
            else default_offsets(len(self.topology.nodes))
        )
        if len(offsets) != len(self.topology.nodes):
            raise ValueError(
                f"{len(offsets)} offsets for "
                f"{len(self.topology.nodes)} processors"
            )
        self.system = live_system(self.topology)
        epoch = time.monotonic()
        self.clocks: Dict[WireId, LiveClock] = {
            p: LiveClock(offset, epoch=epoch)
            for p, offset in zip(self.topology.nodes, offsets)
        }
        self.server: Optional[CorrectionServer] = None
        self.peers: Dict[WireId, ProbePeer] = {}
        self._clients: List[CorrectionClient] = []

    @property
    def start_times(self) -> Dict[WireId, float]:
        """Ground truth: the paper's ``S_p`` per processor."""
        return {p: clock.start_time for p, clock in self.clocks.items()}

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> "LiveCluster":
        """Bind everything, wire addresses, start probing."""
        host = self.config.host
        self.server = await start_correction_server(
            self.system,
            host=host,
            freshness=self.config.freshness,
            transport_seed=self.config.net_seed,
            peer_timeout=self.config.peer_timeout,
            net=self.config.net,
        )
        # Bind all peers first: ephemeral ports exist only after binding.
        for p in self.topology.nodes:
            self.peers[p] = await start_peer(
                PeerConfig(
                    processor=p,
                    clock=self.clocks[p],
                    interval=self.config.interval,
                    report_address=self.server.address,
                    rounds=self.config.rounds,
                    transport_seed=self.config.net_seed,
                    net=self.config.net,
                ),
                host=host,
            )
        # Now every address is known; wire the neighbour maps.
        for p, peer in self.peers.items():
            peer.config.neighbors = {
                q: self.peers[q].address for q in self.topology.neighbors(p)
            }
        for peer in self.peers.values():
            peer.start()
        return self

    async def stop(self) -> None:
        for client in self._clients:
            client.close()
        self._clients.clear()
        for peer in self.peers.values():
            await peer.stop()
        if self.server is not None:
            self.server.close()

    async def __aenter__(self) -> "LiveCluster":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # -- traffic -----------------------------------------------------------

    async def wait_for_observations(
        self, minimum: int, *, timeout: float = 10.0
    ) -> int:
        """Block until the server has admitted ``minimum`` observations."""
        assert self.server is not None, "cluster not started"
        deadline = time.monotonic() + timeout
        while len(self.server.probe_log) < minimum:
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"only {len(self.server.probe_log)} of {minimum} "
                    f"observations admitted within {timeout:g}s"
                )
            await asyncio.sleep(self.config.interval / 2)
        return len(self.server.probe_log)

    async def client(self, processor: WireId) -> CorrectionClient:
        """A query client acting as ``processor`` (closed by :meth:`stop`)."""
        assert self.server is not None, "cluster not started"
        client = await start_client(
            self.server.address, processor, host=self.config.host
        )
        self._clients.append(client)
        return client

    async def query_load(
        self,
        total: int,
        *,
        concurrency: int = 8,
        timeout: float = 2.0,
    ) -> LoadResult:
        """Drive ``total`` queries round-robin over all processors.

        ``concurrency`` independent client workers issue queries
        back-to-back; the result carries every answer (for the replay
        audit) and the measured wall-clock QPS.
        """
        processors = list(self.topology.nodes)
        workers = [
            await self.client(processors[i % len(processors)])
            for i in range(concurrency)
        ]
        shares = [
            total // concurrency + (1 if i < total % concurrency else 0)
            for i in range(concurrency)
        ]

        async def drive(client: CorrectionClient, count: int):
            answers = []
            for _ in range(count):
                answers.append(await client.query(timeout=timeout))
            return answers

        started = time.perf_counter()
        answer_lists = await asyncio.gather(
            *(drive(w, share) for w, share in zip(workers, shares))
        )
        duration = time.perf_counter() - started
        result = LoadResult(queries=total, duration=duration)
        for answers in answer_lists:
            result.answers.extend(answers)
        return result

    # -- transport lifecycle + accounting ------------------------------------

    def pause_probing(self) -> None:
        """Stop every peer's probe loop (sockets stay open to drain)."""
        for peer in self.peers.values():
            peer.pause_probing()

    async def drain_transport(self, timeout: float = 5.0) -> bool:
        """Wait until every reliable channel is empty (acked or given
        up); True when all drained within ``timeout`` each."""
        ok = True
        for peer in self.peers.values():
            ok = await peer.drain(timeout) and ok
        if self.server is not None:
            ok = await self.server.channel.drain(timeout) and ok
        return ok

    def _channels(self) -> Dict[WireId, SegmentChannel]:
        channels: Dict[WireId, SegmentChannel] = {
            p: peer.channel for p, peer in self.peers.items()
        }
        if self.server is not None:
            channels[SERVER_ID] = self.server.channel
        return channels

    def transport_accounting(self) -> Dict[str, dict]:
        """Per-directed-link conservation ledger.

        For every channel that was handed at least one payload, the
        :func:`~repro.transport.link_ledger` identity plus the link's
        retransmits and give-ups.  ``lost`` must be 0 -- the transport's
        no-silent-loss contract.
        """
        channels = self._channels()
        edges: Dict[str, dict] = {}
        for src, channel in channels.items():
            for dst, s in channel.machine.stats_by_peer().items():
                if s.handed == 0:
                    continue
                remote = channels.get(dst)
                edges[f"{src!r}->{dst!r}"] = {
                    **link_ledger(
                        channel.machine,
                        dst,
                        remote.machine if remote is not None else None,
                    ),
                    "retransmits": s.retransmits,
                    "give_ups": s.give_ups,
                }
        return edges

    def transport_summary(self) -> dict:
        """The smoke summary's ``transport`` section."""
        channels = self._channels()
        totals: Dict[str, float] = {}
        for channel in channels.values():
            for name, value in aggregate_stats(
                channel.stats_by_peer()
            ).items():
                totals[name] = totals.get(name, 0) + value
        per_link = self.transport_accounting()
        summary = {
            "totals": totals,
            "per_link": per_link,
            "lost_observations": sum(e["lost"] for e in per_link.values()),
            "unreachable": sorted(
                {
                    repr(peer)
                    for channel in channels.values()
                    for peer in channel.unreachable
                }
            ),
        }
        if self.config.net is not None:
            summary["net"] = self.config.net.counters()
        return summary

    # -- audits ------------------------------------------------------------

    def verify_replay(self) -> ReplayReport:
        """The live == offline audit over everything served so far."""
        assert self.server is not None, "cluster not started"
        return verify_replay_equality(
            self.server.probe_log, self.server.answers, self.system
        )

    def warm_starts(self) -> Dict[str, int]:
        """The server's SHIFTS warm hits/fallbacks and locator fallbacks.

        Served answers are replay-audited against cold batch solves, so a
        nonzero hit count next to ``replay_ok`` shows warm answers exact.
        """
        assert self.server is not None, "cluster not started"
        counters = self.server.online.synchronizer.engine.stats.counters
        names = ("warm_hits", "warm_fallbacks", "locator_fallbacks")
        return {f"shifts_{n}": counters.get(f"shifts.{n}", 0) for n in names}

    def realized(self) -> Optional[float]:
        """Realized corrected-clock spread of the latest ``ok`` result."""
        assert self.server is not None, "cluster not started"
        for answer in reversed(self.server.answers):
            if answer.status == "ok":
                break
        else:
            return None
        result = self.server.online.result()
        return realized_spread(self.start_times, result.corrections)


async def run_smoke(
    *,
    peers: int = 4,
    queries: int = 2000,
    warmup_observations: int = 24,
    interval: float = 0.01,
    freshness: float = DEFAULT_FRESHNESS,
    concurrency: int = 8,
    net: Optional[LossyNetwork] = None,
    net_seed: Any = 0,
    drain_timeout: float = 10.0,
    probe_log_out: Optional[str] = None,
) -> dict:
    """Boot a cluster, drive a query load, audit it; return the summary.

    The CI live job asserts on this summary: sustained QPS, p50/p99
    request latency present in the metrics registry, the
    replay-equality report clean, and -- on the lossy-loopback
    variant -- zero lost observations (``transport.lost_observations``:
    every probe handed to the transport was delivered, surfaced as
    undelivered by a give-up, or refused on a dead channel).
    ``observations`` counts what the online synchronizer ingested and
    ``admitted`` the probe log's records; with ``probe_log_out`` that
    log is written there as JSONL and ``probe_log`` names the file.
    """
    recorder = get_recorder()
    cluster = LiveCluster(
        ClusterConfig(
            peers=peers,
            interval=interval,
            freshness=freshness,
            net=net,
            net_seed=net_seed,
        )
    )
    async with cluster:
        await cluster.wait_for_observations(warmup_observations)
        load = await cluster.query_load(queries, concurrency=concurrency)
        # Quiesce before auditing: stop launching probes, let in-flight
        # retransmissions finish, then take the conservation ledger.
        cluster.pause_probing()
        drained = await cluster.drain_transport(drain_timeout)
        transport = cluster.transport_summary()
        transport["drained"] = drained
        replay = cluster.verify_replay()
        realized = cluster.realized()
        server = cluster.server
        histogram = recorder.histogram(
            "live.server.request_seconds"
        )
        summary = {
            "peers": peers,
            "links": len(cluster.topology.links),
            "observations": server.online.observation_count,
            "admitted": len(server.probe_log),
            "outliers_rejected": server.online.outliers_rejected,
            "queries": load.queries,
            "ok_answers": load.ok_answers,
            "duration_seconds": load.duration,
            "qps": load.qps,
            "request_p50_seconds": (
                quantile(histogram, 0.5) if recorder.enabled else None
            ),
            "request_p99_seconds": (
                quantile(histogram, 0.99) if recorder.enabled else None
            ),
            "replay": replay.describe(),
            "replay_ok": replay.ok,
            "replay_checked": replay.checked,
            "replay_cuts": len(replay.cuts),
            **cluster.warm_starts(),
            "realized_spread": realized,
            "transport": transport,
            "health": server.health_json(),
            "probe_log": None,
        }
    if probe_log_out is not None:
        path = write_probe_log(probe_log_out, server.probe_log)
        summary["probe_log"] = str(path)
    return summary


def smoke(**options) -> dict:
    """Synchronous :func:`run_smoke` wrapper (installs a recorder if none).

    The p50/p99 fields need a live metrics registry; when the ambient
    recorder is the no-op one, a private :class:`Recorder` is installed
    for the duration of the run.
    """
    if get_recorder().enabled:
        return asyncio.run(run_smoke(**options))
    with recording(Recorder()):
        return asyncio.run(run_smoke(**options))


__all__ = [
    "ClusterConfig",
    "LiveCluster",
    "LoadResult",
    "default_offsets",
    "live_system",
    "run_smoke",
    "smoke",
]
