"""Asyncio driver for the reliable transport, plus seeded loss injection.

The protocol logic lives in :class:`repro.transport.ReliableTransport`
(shared with the simulator driver in :mod:`repro.sim.transport`); this
module translates its actions into the live runtime's world:

* :class:`Emit` becomes an encoded :class:`~repro.live.wire.Seg` /
  :class:`~repro.live.wire.SegAck` datagram sent through the endpoint's
  socket (optionally through a :class:`LossyNetwork`);
* retransmission deadlines become ``loop.call_later`` handles, exactly
  one armed per channel set (rearmed after every machine interaction);
* :class:`Deliver` hands the inner :class:`~repro.live.wire.Probe` /
  :class:`~repro.live.wire.Report` back to the endpoint's application
  callback, with the receive timestamp captured *at datagram arrival*
  (the clock read is the datum; transport bookkeeping must not delay
  it);
* :class:`PeerUnreachable` feeds the endpoint's failure callback (peers
  count it; the server folds it into its health tiers).

Peer addresses are learned two ways: declared up front
(:meth:`SegmentChannel.register_peer`, the cluster wiring path) and
refreshed from every incoming frame's source address -- which is how
the server can ack peers it never dialed.

:class:`LossyNetwork` is the fault injection used by the lossy-loopback
smoke test and CI job: a seeded, deterministic drop/reorder layer in
front of ``sendto``, applied only to transport frames (queries and
corrections already have app-level retry).  Loopback UDP is too polite
to test a retransmission protocol against; this makes it hostile on
demand.
"""

from __future__ import annotations

import asyncio
import random
import socket
import time
from typing import Any, Callable, Dict, Optional, Tuple

from repro.live.wire import Seg, SegAck, WireId, encode
from repro.obs.recorder import get_recorder
from repro.transport import (
    AckSegment,
    ChannelStats,
    DataSegment,
    Deliver,
    Emit,
    PeerUnreachable,
    ReliableTransport,
    TransportConfig,
    recorder_observer,
)

Address = Tuple[str, int]

#: The wire id the correction server's transport endpoint answers to
#: (peers address their reliable report channel by it).
SERVER_ID: WireId = "@server"

#: Longest hold :class:`LossyNetwork` puts on a reordered datagram
#: (seconds): a few loopback round trips, so later traffic overtakes it.
REORDER_DELAY = 0.02

#: Loopback-scale transport profile: RTTs are tens of microseconds, so
#: a small initial RTO keeps lossy-run latency low while the cap and
#: retry budget ride out bursts of drops.
LIVE_TRANSPORT_CONFIG = TransportConfig(
    rto_initial=0.05,
    rto_max=0.8,
    backoff=2.0,
    jitter=0.25,
    window=64,
    max_retries=8,
)


#: Receive buffer asked for on every peer and server socket.  The Linux
#: default (~208 KB) holds roughly 150 small datagrams: well under a
#: tenth of a second of a 4-peer cluster probing every 5 ms.  A short
#: event-loop stall then overflows it, and the retransmissions of the
#: dropped segments keep it overflowing for seconds.
RECEIVE_BUFFER_BYTES = 4 << 20


def enlarge_receive_buffer(transport: asyncio.BaseTransport) -> None:
    """Ask for a :data:`RECEIVE_BUFFER_BYTES` receive buffer on the socket.

    The kernel caps the request at ``net.core.rmem_max``; a platform
    that refuses it keeps its default buffer.
    """
    sock = transport.get_extra_info("socket")
    if sock is None:
        return
    try:
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_RCVBUF, RECEIVE_BUFFER_BYTES
        )
    except OSError:
        get_recorder().count("live.rcvbuf_refused")


class LossyNetwork:
    """Seeded datagram loss/reordering in front of a UDP socket.

    ``loss`` is the drop probability per datagram; ``reorder`` is the
    probability a surviving datagram is held for a uniform delay in
    ``(0, REORDER_DELAY]`` before being sent (letting later traffic
    overtake it).  All randomness comes from a private stream seeded by
    a stable string, so a smoke run's fault pattern is reproducible.
    """

    def __init__(
        self,
        *,
        loss: float = 0.0,
        reorder: float = 0.0,
        seed: Any = 0,
    ) -> None:
        if not 0.0 <= loss < 1.0:
            raise ValueError(f"loss must be in [0, 1), got {loss}")
        if not 0.0 <= reorder <= 1.0:
            raise ValueError(f"reorder must be in [0, 1], got {reorder}")
        self.loss = float(loss)
        self.reorder = float(reorder)
        self._rng = random.Random(f"{seed}:lossy-net")
        self.dropped = 0
        self.delayed = 0
        self.passed = 0

    def send(
        self, transport: asyncio.DatagramTransport, data: bytes, addr: Address
    ) -> None:
        if self.loss and self._rng.random() < self.loss:
            self.dropped += 1
            get_recorder().count("live.net.injected_drops")
            return
        if self.reorder and self._rng.random() < self.reorder:
            self.delayed += 1
            get_recorder().count("live.net.injected_delays")
            delay = REORDER_DELAY * self._rng.random()
            asyncio.get_running_loop().call_later(
                delay, self._late_send, transport, data, addr
            )
            return
        self.passed += 1
        transport.sendto(data, addr)

    @staticmethod
    def _late_send(
        transport: asyncio.DatagramTransport, data: bytes, addr: Address
    ) -> None:
        if not transport.is_closing():
            transport.sendto(data, addr)

    def counters(self) -> Dict[str, int]:
        return {
            "dropped": self.dropped,
            "delayed": self.delayed,
            "passed": self.passed,
        }


class SegmentChannel:
    """One endpoint's reliable channels over one asyncio UDP socket."""

    def __init__(
        self,
        local: WireId,
        *,
        sendto: Callable[[bytes, Address], None],
        on_deliver: Callable[[Any, WireId, float], None],
        on_unreachable: Optional[Callable[[WireId, Tuple[Any, ...]], None]] = None,
        config: Optional[TransportConfig] = None,
        seed: Any = 0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.local = local
        self._machine = ReliableTransport(
            local,
            config or LIVE_TRANSPORT_CONFIG,
            seed=seed,
            observer=recorder_observer(),
        )
        self._sendto = sendto
        self._on_deliver = on_deliver
        self._on_unreachable = on_unreachable
        self._clock = clock
        self._addrs: Dict[WireId, Address] = {}
        self._timer: Optional[asyncio.TimerHandle] = None
        self._timer_deadline: Optional[float] = None
        self._closed = False

    # -- wiring ------------------------------------------------------------

    def register_peer(self, peer: WireId, addr: Address) -> None:
        self._addrs[peer] = addr

    @property
    def machine(self) -> ReliableTransport:
        return self._machine

    @property
    def unreachable(self) -> set:
        return set(self._machine.unreachable)

    @property
    def idle(self) -> bool:
        return self._machine.idle

    def stats_by_peer(self) -> Dict[WireId, ChannelStats]:
        return self._machine.stats_by_peer()

    # -- sending -----------------------------------------------------------

    def send(self, dst: WireId, payload: Any) -> None:
        """Hand one Probe/Report to the reliable channel toward ``dst``."""
        self._apply(self._machine.send(dst, payload, self._clock()))

    # -- receiving ---------------------------------------------------------

    def on_datagram(
        self, message: Any, addr: Address, recv_clock: float
    ) -> bool:
        """Route one decoded Seg/SegAck; returns False for other kinds.

        ``recv_clock`` is the endpoint clock reading captured when the
        datagram arrived -- it rides through to ``on_deliver`` so a
        framed probe is timestamped at arrival, not after the transport
        bookkeeping.
        """
        if isinstance(message, Seg):
            self._addrs[message.src] = addr
            frame = DataSegment(
                src=message.src, dst=message.dst, seq=message.seq,
                payload=message.inner,
            )
        elif isinstance(message, SegAck):
            self._addrs[message.src] = addr
            frame = AckSegment(
                src=message.src, dst=message.dst, cum=message.cum,
                sacks=message.sacks,
            )
        else:
            return False
        self._apply(
            self._machine.on_frame(frame, self._clock()),
            recv_clock=recv_clock,
        )
        return True

    # -- machine plumbing --------------------------------------------------

    def _apply(self, actions, recv_clock: Optional[float] = None) -> None:
        for action in actions:
            if isinstance(action, Emit):
                self._emit(action.frame)
            elif isinstance(action, Deliver):
                clock_read = (
                    recv_clock if recv_clock is not None else self._clock()
                )
                self._on_deliver(action.payload, action.src, clock_read)
            elif isinstance(action, PeerUnreachable):
                get_recorder().count("live.transport.peers_unreachable")
                if self._on_unreachable is not None:
                    self._on_unreachable(action.peer, action.undelivered)
        self._rearm()

    def _emit(self, frame: Any) -> None:
        addr = self._addrs.get(frame.dst)
        if addr is None:
            # No route yet (peer not wired, nothing heard from it):
            # counted, and the retransmit timer will try again.
            get_recorder().count("live.transport.unroutable")
            return
        if isinstance(frame, DataSegment):
            wire = Seg(src=frame.src, dst=frame.dst, seq=frame.seq,
                       inner=frame.payload)
        else:
            wire = SegAck(src=frame.src, dst=frame.dst, cum=frame.cum,
                          sacks=tuple(frame.sacks))
        self._sendto(encode(wire), addr)

    def _rearm(self) -> None:
        if self._closed:
            return
        deadline = self._machine.next_timeout()
        if deadline == self._timer_deadline and self._timer is not None:
            return
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._timer_deadline = deadline
        if deadline is not None:
            delay = max(0.0, deadline - self._clock())
            self._timer = asyncio.get_running_loop().call_later(
                delay, self._fire
            )

    def _fire(self) -> None:
        self._timer = None
        self._timer_deadline = None
        if self._closed:
            return
        self._apply(self._machine.on_timer(self._clock()))

    # -- lifecycle ---------------------------------------------------------

    async def drain(self, timeout: float = 5.0) -> bool:
        """Wait for every channel to empty (ack or give up); True if idle."""
        deadline = self._clock() + timeout
        while not self._machine.idle:
            if self._clock() >= deadline:
                return False
            await asyncio.sleep(0.005)
        return True

    def close(self) -> None:
        self._closed = True
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None


__all__ = [
    "LIVE_TRANSPORT_CONFIG",
    "RECEIVE_BUFFER_BYTES",
    "SERVER_ID",
    "LossyNetwork",
    "SegmentChannel",
    "enlarge_receive_buffer",
]
