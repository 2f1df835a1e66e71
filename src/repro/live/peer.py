"""The asyncio UDP probe peer: real sockets, real timestamps.

A :class:`ProbePeer` is one live processor.  It periodically sends
:class:`~repro.live.wire.Probe` beacons (its clock reading plus a
sequence number) to each neighbour and timestamps every probe it
receives, turning the pair of clock reads into one observation --
exactly the estimated delay ``d~`` of Lemma 6.1, produced by real
datagrams instead of the discrete-event simulator.

Probes and reports always ride the reliable transport
(:mod:`repro.live.transport`, :data:`LIVE_TRANSPORT_CONFIG`): each is
framed in an acked, retransmitted :class:`~repro.live.wire.Seg`, so
datagram *loss* costs a backed-off retransmission instead of a lost
observation, and a peer that stops acking is flagged unreachable rather
than silently ignored.  The probe's ``send_clock`` is read once at
hand-off and rides inside the frame unchanged -- a retransmitted probe
therefore yields a genuine (if large) delay estimate for the *emergent*
delay, which the ``lower_bounds_only(0)`` loopback model admits.  There
is no raw path: an unframed probe is outside input and is dropped.

Transport faults degrade, never crash (the live analogue of the PR 5
screening path):

* torn / corrupt datagrams fail the wire CRC and are dropped
  (``live.peer.datagrams_invalid``);
* raw (unframed) probes and every other non-transport datagram are
  dropped (``live.peer.datagrams_unexpected``);
* duplicated probes are deduplicated first-delivery-wins on
  ``(sender, seq)`` (``live.peer.probes_duplicate``), matching the
  view-level semantics of
  :meth:`repro.model.views.View.receive_clock_times`;
* reordered datagrams are harmless -- observations are order-free
  min/max statistics;
* probes from unknown senders are dropped
  (``live.peer.probes_unknown``).

Each accepted probe becomes a :class:`~repro.live.wire.Report` that the
peer accumulates locally (so its own views can be rebuilt via
:func:`repro.live.trace.views_from_probes`) and, when configured,
forwards to the correction server's ingest address.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.live.clock import LiveClock
from repro.live.trace import views_from_probes
from repro.live.transport import (
    SERVER_ID,
    LossyNetwork,
    SegmentChannel,
    enlarge_receive_buffer,
)
from repro.live.wire import (
    Probe,
    Report,
    Seg,
    SegAck,
    WireError,
    WireId,
    decode,
)
from repro.obs.recorder import get_recorder
from repro.transport import ChannelStats

Address = Tuple[str, int]


@dataclass
class PeerConfig:
    """Everything one live peer needs to run."""

    processor: WireId
    clock: LiveClock
    #: neighbour processor -> UDP address to probe.
    neighbors: Dict[WireId, Address] = field(default_factory=dict)
    #: seconds between probe rounds.
    interval: float = 0.05
    #: where to forward accepted observations (the correction server's
    #: ingest address); ``None`` keeps observations peer-local.
    report_address: Optional[Address] = None
    #: stop probing after this many rounds (``None`` = until stopped).
    rounds: Optional[int] = None
    #: seed for the transport's retransmit-jitter stream.
    transport_seed: Any = 0
    #: optional injected loss/reordering in front of every send.
    net: Optional[LossyNetwork] = None


class ProbePeer(asyncio.DatagramProtocol):
    """One live processor: probes neighbours, timestamps what it hears."""

    def __init__(
        self,
        config: PeerConfig,
        *,
        on_report: Optional[Callable[[Report], None]] = None,
    ) -> None:
        self.config = config
        self._on_report = on_report
        self._transport: Optional[asyncio.DatagramTransport] = None
        self._task: Optional[asyncio.Task] = None
        self._seen: set = set()
        self._records: List[Report] = []
        self._channel = SegmentChannel(
            config.processor,
            sendto=self._sendto,
            on_deliver=self._transport_deliver,
            on_unreachable=self._peer_unreachable,
            seed=config.transport_seed,
        )
        self.unreachable_peers: set = set()
        self.rounds_sent = 0

    # -- datagram protocol -------------------------------------------------

    def connection_made(self, transport) -> None:  # pragma: no cover - glue
        self._transport = transport
        enlarge_receive_buffer(transport)

    def error_received(self, exc: OSError) -> None:
        get_recorder().count("live.peer.transport_errors")

    def _sendto(self, data: bytes, addr: Address) -> None:
        if self._transport is None:
            return
        if self.config.net is not None:
            self.config.net.send(self._transport, data, addr)
        else:
            self._transport.sendto(data, addr)

    def datagram_received(self, data: bytes, addr: Address) -> None:
        # Timestamp before any parsing: the clock read *is* the datum.
        recv_clock = self.config.clock.reading()
        recorder = get_recorder()
        try:
            message = decode(data)
        except WireError:
            recorder.count("live.peer.datagrams_invalid")
            return
        if isinstance(message, (Seg, SegAck)):
            self._channel.on_datagram(message, addr, recv_clock)
        else:
            # Unframed probes included: outside input, never trusted.
            recorder.count("live.peer.datagrams_unexpected")

    def _transport_deliver(
        self, payload: Any, src: WireId, recv_clock: float
    ) -> None:
        if isinstance(payload, Probe):
            self._accept_probe(payload, recv_clock)
        else:
            get_recorder().count("live.peer.datagrams_unexpected")

    def _peer_unreachable(
        self, peer: WireId, undelivered: Tuple[Any, ...]
    ) -> None:
        self.unreachable_peers.add(peer)
        get_recorder().count("live.peer.peers_unreachable")

    def _accept_probe(self, message: Probe, recv_clock: float) -> None:
        """Dedupe, record, and forward one received probe."""
        recorder = get_recorder()
        if message.sender not in self.config.neighbors:
            recorder.count("live.peer.probes_unknown")
            return
        key = (message.sender, message.seq)
        if key in self._seen:
            # Duplicate delivery: first receive wins, matching
            # View.receive_clock_times semantics.
            recorder.count("live.peer.probes_duplicate")
            return
        self._seen.add(key)
        report = Report(
            sender=message.sender,
            receiver=self.config.processor,
            seq=message.seq,
            send_clock=message.send_clock,
            recv_clock=recv_clock,
        )
        self._records.append(report)
        recorder.count("live.peer.probes_received")
        if self.config.report_address is not None:
            self._channel.register_peer(
                SERVER_ID, self.config.report_address
            )
            self._channel.send(SERVER_ID, report)
        if self._on_report is not None:
            self._on_report(report)

    # -- probing loop ------------------------------------------------------

    def start(self) -> asyncio.Task:
        """Start the periodic probe loop (idempotent)."""
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(
                self._probe_loop()
            )
        return self._task

    async def _probe_loop(self) -> None:
        recorder = get_recorder()
        seq = 0
        while self.config.rounds is None or seq < self.config.rounds:
            self.send_probe_round(seq)
            self.rounds_sent = seq + 1
            if recorder.enabled:
                recorder.count(
                    "live.peer.probes_sent", len(self.config.neighbors)
                )
            seq += 1
            await asyncio.sleep(self.config.interval)

    def send_probe_round(self, seq: int) -> None:
        """Send one probe to every neighbour (clock read per probe)."""
        if self._transport is None:
            raise RuntimeError(
                f"peer {self.config.processor!r} has no transport"
            )
        for neighbor, address in self.config.neighbors.items():
            probe = Probe(
                sender=self.config.processor,
                seq=seq,
                send_clock=self.config.clock.reading(),
            )
            self._channel.register_peer(neighbor, address)
            self._channel.send(neighbor, probe)

    def pause_probing(self) -> None:
        """Stop launching new probe rounds; keep the socket (and any
        in-flight retransmissions) alive so the transport can drain."""
        if self._task is not None:
            self._task.cancel()
            self._task = None

    async def drain(self, timeout: float = 5.0) -> bool:
        """Wait for the reliable channels to empty; True when idle."""
        return await self._channel.drain(timeout)

    async def stop(self) -> None:
        """Cancel the probe loop and close the socket."""
        task = self._task
        self.pause_probing()
        if task is not None:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._channel.close()
        if self._transport is not None:
            self._transport.close()
            self._transport = None

    # -- accumulated state -------------------------------------------------

    @property
    def address(self) -> Address:
        """The peer's bound UDP address."""
        if self._transport is None:
            raise RuntimeError("peer is not bound")
        return self._transport.get_extra_info("sockname")[:2]

    @property
    def channel(self) -> SegmentChannel:
        """The reliable-transport endpoint probes and reports ride."""
        return self._channel

    def transport_stats(self) -> Dict[WireId, ChannelStats]:
        """Per-peer transport counters."""
        return self._channel.stats_by_peer()

    @property
    def records(self) -> Tuple[Report, ...]:
        """Observations this peer accepted, in arrival order."""
        return tuple(self._records)

    @property
    def observation_count(self) -> int:
        return len(self._records)

    def views(self):
        """:mod:`repro.model.views`-compatible views of this peer's traffic.

        Covers the messages this peer received (it holds both clock
        reads of those); cluster-wide views come from the union of all
        peers' records or from the server's probe log.
        """
        return views_from_probes(
            self._records, processors=(self.config.processor,)
        )


async def start_peer(
    config: PeerConfig,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    on_report: Optional[Callable[[Report], None]] = None,
) -> ProbePeer:
    """Bind a :class:`ProbePeer` on ``host:port`` (0 = ephemeral).

    The probe loop is *not* started -- wire up neighbour addresses
    first (they are only known once every peer is bound), then call
    :meth:`ProbePeer.start`.
    """
    loop = asyncio.get_running_loop()
    _, peer = await loop.create_datagram_endpoint(
        lambda: ProbePeer(config, on_report=on_report),
        local_addr=(host, port),
    )
    return peer


__all__ = ["Address", "PeerConfig", "ProbePeer", "SERVER_ID", "start_peer"]
