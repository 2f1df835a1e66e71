"""The correction server: "what is my correction now?" at high QPS.

A :class:`CorrectionServer` is a UDP endpoint with two duties:

* **ingest** -- peers forward :class:`~repro.live.wire.Report`
  observations over the reliable transport
  (:class:`~repro.live.transport.SegmentChannel`, framed in acked,
  retransmitted :class:`~repro.live.wire.Seg` datagrams); an unframed
  report is outside input and is dropped
  (``live.server.datagrams_unexpected``).  Each admitted one feeds the
  :class:`~repro.extensions.online.OnlineSynchronizer` (O(1) statistic
  update, Lemma 6.2/6.5) and is appended to the durable
  :class:`~repro.live.trace.ProbeLog` in ingestion order;
* **serve** -- clients send :class:`~repro.live.wire.Query` datagrams
  and get back their optimal correction, the certified precision, and
  the *cut* the answer was computed from.

Serving is built for traffic, not per-query recomputation:

* **freshness-bounded cache** -- a result whose cut still equals the
  log length is exact and served forever; otherwise it may be served
  while younger than ``freshness`` seconds.  Corrections only improve
  with more data (online monotonicity), so bounded staleness is sound
  -- it trades recency, never correctness.
* **request batching** -- queries that miss the cache while a refresh
  is in flight coalesce onto the same recompute (single-flight): one
  GLOBAL ESTIMATES repair answers the whole burst.
* the recompute itself takes the OnlineSynchronizer's
  incremental-repair path, so a refresh after a few new observations
  relaxes only the improved entries.

Every answer is stamped with its cut, making the server auditable: the
live == offline contract (:mod:`repro.live.replay`) checks that
``ClockSynchronizer.from_views`` over the log's first ``cut`` records
reproduces each served correction byte-for-byte.

Latency is measured per request into the ``live.server.request_seconds``
histogram (fine sub-millisecond buckets, p50/p99 via the obs
quantile report and the Prometheus exporter); the ops surface is the
shared :func:`repro.obs.http.serve_telemetry` sidecar with this
server's :meth:`health_json` as its health provider.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.errors import InconsistentViewsError, UnboundedPrecisionError
from repro.core.synchronizer import SyncResult
from repro.delays.system import System, UnknownLinkError
from repro.extensions.online import OnlineSynchronizer
from repro.live.trace import ProbeLog
from repro.live.transport import (
    SERVER_ID,
    LossyNetwork,
    SegmentChannel,
    enlarge_receive_buffer,
)
from repro.live.wire import (
    Correction,
    Query,
    Report,
    Seg,
    SegAck,
    WireError,
    WireId,
    decode,
    encode,
)
from repro.obs.recorder import get_recorder
from repro.transport import aggregate_stats

Address = Tuple[str, int]

#: Default freshness bound: a cached-but-stale result may be served for
#: this many seconds before a query forces a refresh.
DEFAULT_FRESHNESS = 0.05

#: Sub-millisecond-resolution buckets for request latency (seconds).
REQUEST_LATENCY_BUCKETS = (
    5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0,
)


@dataclass(frozen=True)
class ServedResult:
    """One computed answer set: the result (or why none) plus its cut."""

    status: str  # "ok" | "pending" | "stale"
    result: Optional[SyncResult]
    cut: int
    computed_at: float


class CorrectionServer(asyncio.DatagramProtocol):
    """UDP ingest + query endpoint over one :class:`OnlineSynchronizer`."""

    def __init__(
        self,
        system: System,
        *,
        freshness: float = DEFAULT_FRESHNESS,
        root: Optional[WireId] = None,
        reject_outliers: bool = True,
        fallback: bool = True,
        keep_answers: bool = True,
        time_fn=time.monotonic,
        transport_seed: Any = 0,
        peer_timeout: Optional[float] = None,
        net: Optional[LossyNetwork] = None,
    ) -> None:
        self._system = system
        self._online = OnlineSynchronizer(
            system,
            root=root,
            reject_outliers=reject_outliers,
            fallback=fallback,
        )
        self._freshness = float(freshness)
        self._time_fn = time_fn
        self._processors = set(system.processors)
        self._log = ProbeLog()
        self._seen: set = set()
        self._cached: Optional[ServedResult] = None
        self._refresh: Optional[asyncio.Future] = None
        self._keep_answers = keep_answers
        self._answers: List[Correction] = []
        self._transport: Optional[asyncio.DatagramTransport] = None
        self._peer_timeout = peer_timeout
        self._net = net
        self._channel = SegmentChannel(
            SERVER_ID,
            sendto=self._sendto,
            on_deliver=self._transport_deliver,
            on_unreachable=self._peer_unreachable,
            seed=transport_seed,
        )
        self._last_heard: Dict[WireId, float] = {}
        self.unreachable_peers: set = set()
        self.queries_served = 0
        self.reports_ingested = 0

    # -- datagram protocol -------------------------------------------------

    def connection_made(self, transport) -> None:  # pragma: no cover - glue
        self._transport = transport
        enlarge_receive_buffer(transport)

    def _sendto(self, data: bytes, addr: Address) -> None:
        if self._transport is None:
            return
        if self._net is not None:
            self._net.send(self._transport, data, addr)
        else:
            self._transport.sendto(data, addr)

    def _transport_deliver(
        self, payload, src: WireId, recv_clock: float
    ) -> None:
        if isinstance(payload, Report):
            self._ingest(payload)
        else:
            # Peers frame reports toward the server; a framed probe is
            # a peer misconfigured to probe the server's wire id.
            get_recorder().count("live.server.datagrams_unexpected")

    def _peer_unreachable(self, peer: WireId, undelivered) -> None:
        self.unreachable_peers.add(peer)
        get_recorder().count("live.server.peers_unreachable")

    def error_received(self, exc: OSError) -> None:
        get_recorder().count("live.server.transport_errors")

    def datagram_received(self, data: bytes, addr: Address) -> None:
        started = time.perf_counter()
        recorder = get_recorder()
        try:
            message = decode(data)
        except WireError:
            recorder.count("live.server.datagrams_invalid")
            return
        if isinstance(message, Query):
            asyncio.get_running_loop().create_task(
                self._answer(message, addr, started)
            )
        elif isinstance(message, (Seg, SegAck)):
            self._channel.on_datagram(message, addr, self._time_fn())
        else:
            # Unframed reports included: outside input, never trusted.
            recorder.count("live.server.datagrams_unexpected")

    # -- ingest ------------------------------------------------------------

    def _ingest(self, report: Report) -> None:
        recorder = get_recorder()
        # Liveness: the forwarding peer (the report's receiver) just
        # spoke.
        self._last_heard[report.receiver] = self._time_fn()
        key = (report.sender, report.receiver, report.seq)
        if key in self._seen:
            recorder.count("live.server.reports_duplicate")
            return
        try:
            self._online.observe_timestamps(
                report.sender,
                report.receiver,
                report.send_clock,
                report.recv_clock,
            )
        except UnknownLinkError:
            recorder.count("live.server.reports_unknown_edge")
            return
        except ValueError:
            # A non-finite clock reading (the wire decodes Infinity and
            # NaN): never admitted, so it never reaches the probe log.
            recorder.count("live.server.reports_invalid")
            return
        self._seen.add(key)
        self.reports_ingested += 1
        recorder.count("live.server.reports")
        if self._online.last_observation_admitted:
            self._log.append(report)
        else:
            # Screened by the Lemma 6.2 outlier check; the sample never
            # entered the statistics, so it must not enter the log
            # either -- the log replays to exactly the admitted set.
            recorder.count("live.server.reports_screened")

    # -- query path --------------------------------------------------------

    async def _answer(
        self, query: Query, addr: Address, started: float
    ) -> None:
        recorder = get_recorder()
        self.queries_served += 1
        recorder.count("live.server.queries")
        if query.client not in self._processors:
            answer = Correction(
                qid=query.qid,
                client=query.client,
                status="unknown",
                correction=None,
                precision=None,
                cut=len(self._log),
                observations=self._online.observation_count,
            )
        else:
            served = await self._current_result()
            if served.result is None:
                correction = precision = None
            else:
                correction = served.result.corrections.get(query.client)
                precision = served.result.precision
            answer = Correction(
                qid=query.qid,
                client=query.client,
                status=served.status,
                correction=correction,
                precision=precision,
                cut=served.cut,
                observations=self._online.observation_count,
            )
        if self._keep_answers:
            self._answers.append(answer)
        if self._transport is not None:
            self._transport.sendto(encode(answer), addr)
        recorder.histogram(
            "live.server.request_seconds",
            REQUEST_LATENCY_BUCKETS,
            "correction-query latency, receive to respond",
        ).observe(time.perf_counter() - started)

    async def _current_result(self) -> ServedResult:
        """The freshness-bounded, single-flight result cache."""
        recorder = get_recorder()
        cut = len(self._log)
        cached = self._cached
        if cached is not None:
            if cached.cut == cut:
                # No observation admitted since: the cache is exact.
                recorder.count("live.server.cache_exact")
                return cached
            if self._time_fn() - cached.computed_at < self._freshness:
                recorder.count("live.server.cache_fresh")
                return cached
        if self._refresh is not None:
            # A refresh is already in flight; coalesce onto it.
            recorder.count("live.server.coalesced")
            return await self._refresh
        loop = asyncio.get_running_loop()
        self._refresh = loop.create_future()
        try:
            # Yield once so a burst of concurrent queries can register
            # against this refresh instead of each recomputing.
            await asyncio.sleep(0)
            served = self._compute()
            self._cached = served
            self._refresh.set_result(served)
            return served
        except BaseException as exc:  # pragma: no cover - defensive
            self._refresh.set_exception(exc)
            raise
        finally:
            self._refresh = None

    def _compute(self) -> ServedResult:
        recorder = get_recorder()
        cut = len(self._log)
        started = time.perf_counter()
        try:
            result = self._online.result()
            status = "stale" if self._online.in_fallback else "ok"
            if result.precision == float("inf"):
                # Traffic so far certifies nothing (no bidirectional
                # coverage yet): answer "pending", not a vacuous "ok".
                result, status = None, "pending"
        except (UnboundedPrecisionError, InconsistentViewsError, ValueError):
            # Not enough traffic yet for a finite certified precision
            # (or inconsistent stats with no last-good fallback).
            result, status = None, "pending"
        recorder.count("live.server.refreshes")
        recorder.histogram(
            "live.server.refresh_seconds",
            REQUEST_LATENCY_BUCKETS,
            "result refresh latency (cache misses only)",
        ).observe(time.perf_counter() - started)
        if status == "stale":
            # A fallback result reflects an *older* cut than len(log);
            # it is excluded from the replay-equality contract.
            cut = self._cached.cut if self._cached is not None else 0
        return ServedResult(
            status=status,
            result=result,
            cut=cut,
            computed_at=self._time_fn(),
        )

    # -- introspection -----------------------------------------------------

    @property
    def address(self) -> Address:
        if self._transport is None:
            raise RuntimeError("server is not bound")
        return self._transport.get_extra_info("sockname")[:2]

    @property
    def system(self) -> System:
        return self._system

    @property
    def online(self) -> OnlineSynchronizer:
        """The underlying online synchronizer (stats, staleness, drops)."""
        return self._online

    @property
    def probe_log(self) -> ProbeLog:
        """Admitted observations in ingestion order (the replay input)."""
        return self._log

    @property
    def answers(self) -> Tuple[Correction, ...]:
        """Every answer served (when ``keep_answers``), for auditing."""
        return tuple(self._answers)

    @property
    def channel(self) -> SegmentChannel:
        """The reliable-transport endpoint peers report through."""
        return self._channel

    def silent_peers(self) -> List[WireId]:
        """Peers once heard from but silent beyond ``peer_timeout``.

        Empty when ``peer_timeout`` is unset.  A silent peer is the
        weaker tier of failure evidence (its own channel may simply be
        idle); a transport give-up (``unreachable_peers``) is the
        strong one.
        """
        if self._peer_timeout is None:
            return []
        now = self._time_fn()
        return sorted(
            (
                peer
                for peer, heard in self._last_heard.items()
                if now - heard > self._peer_timeout
            ),
            key=repr,
        )

    def health_json(self) -> dict:
        """The ``/healthz`` payload (see :func:`repro.obs.http.serve_telemetry`).

        ``healthy`` goes false only when the server is reduced to
        serving fallback results over inconsistent statistics -- the
        one state an operator must look at; ``pending`` (not enough
        traffic yet) and ``ok`` are both healthy.
        """
        in_fallback = self._online.in_fallback
        cached = self._cached
        return {
            "status": (
                "degraded" if in_fallback
                else ("ok" if cached is not None and cached.result is not None
                      else "pending")
            ),
            "healthy": not in_fallback,
            "observations": self._online.observation_count,
            "admitted": len(self._log),
            "outliers_rejected": self._online.outliers_rejected,
            "queries": self.queries_served,
            "served_cut": None if cached is None else cached.cut,
            "silent_peers": [repr(p) for p in self.silent_peers()],
            "unreachable_peers": sorted(
                repr(p) for p in self.unreachable_peers
            ),
            "transport": aggregate_stats(self._channel.stats_by_peer()),
        }

    def close(self) -> None:
        self._channel.close()
        if self._transport is not None:
            self._transport.close()
            self._transport = None


async def start_correction_server(
    system: System,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    **options,
) -> CorrectionServer:
    """Bind a :class:`CorrectionServer` on ``host:port`` (0 = ephemeral)."""
    loop = asyncio.get_running_loop()
    _, server = await loop.create_datagram_endpoint(
        lambda: CorrectionServer(system, **options),
        local_addr=(host, port),
    )
    return server


# ----------------------------------------------------------------------
# Query client
# ----------------------------------------------------------------------

class CorrectionClient(asyncio.DatagramProtocol):
    """A tiny UDP client: send queries, await matching answers.

    UDP gives no delivery guarantee even on loopback (buffers can
    drop); :meth:`query` retransmits on timeout, and duplicate answers
    to a retried qid are ignored (first wins).
    """

    def __init__(self, server_address: Address, client_id: WireId) -> None:
        self._server = server_address
        self.client_id = client_id
        self._transport: Optional[asyncio.DatagramTransport] = None
        self._pending: dict = {}
        self._next_qid = 0

    def connection_made(self, transport) -> None:  # pragma: no cover - glue
        self._transport = transport

    def datagram_received(self, data: bytes, addr: Address) -> None:
        try:
            message = decode(data)
        except WireError:
            get_recorder().count("live.client.datagrams_invalid")
            return
        if isinstance(message, Correction):
            future = self._pending.pop(message.qid, None)
            if future is not None and not future.done():
                future.set_result(message)

    async def query(
        self, *, timeout: float = 1.0, retries: int = 3
    ) -> Correction:
        """One correction request (retransmitted up to ``retries`` times)."""
        if self._transport is None:
            raise RuntimeError("client is not bound")
        qid = self._next_qid
        self._next_qid += 1
        request = encode(Query(client=self.client_id, qid=qid))
        loop = asyncio.get_running_loop()
        last_error: Optional[BaseException] = None
        for _ in range(retries + 1):
            future = loop.create_future()
            self._pending[qid] = future
            self._transport.sendto(request, self._server)
            try:
                return await asyncio.wait_for(future, timeout)
            except asyncio.TimeoutError as exc:
                last_error = exc
                self._pending.pop(qid, None)
        raise TimeoutError(
            f"no answer from {self._server} after {retries + 1} attempts"
        ) from last_error

    def close(self) -> None:
        if self._transport is not None:
            self._transport.close()
            self._transport = None


async def start_client(
    server_address: Address,
    client_id: WireId,
    *,
    host: str = "127.0.0.1",
) -> CorrectionClient:
    """Bind a :class:`CorrectionClient` aimed at ``server_address``."""
    loop = asyncio.get_running_loop()
    _, client = await loop.create_datagram_endpoint(
        lambda: CorrectionClient(server_address, client_id),
        local_addr=(host, 0),
    )
    return client


__all__ = [
    "DEFAULT_FRESHNESS",
    "REQUEST_LATENCY_BUCKETS",
    "SERVER_ID",
    "CorrectionClient",
    "CorrectionServer",
    "ServedResult",
    "start_client",
    "start_correction_server",
]
