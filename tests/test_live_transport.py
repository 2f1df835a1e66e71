"""The live reliable-transport driver: wire framing, SegmentChannel,
and the lossy-loopback smoke.

ISSUE requirements covered here:

* ``seg``/``segack`` datagrams round-trip the wire codec and defects
  are rejected, never crash;
* a :class:`SegmentChannel` pair over an injected-loss in-memory link
  delivers every payload exactly once, retransmitting as needed, and
  reports an unresponsive peer unreachable instead of hanging;
* a real loopback cluster under >= 20% injected datagram loss plus
  reordering still serves replay-audited corrections with **zero lost
  observations** -- the tentpole's live acceptance criterion;
* peer and server sockets are bound with a receive buffer large enough
  that the kernel does not drop a busy cluster's datagrams.
"""

import asyncio
import socket
from pathlib import Path

import pytest

from repro.graphs.topology import complete
from repro.live.clock import LiveClock
from repro.live.cluster import live_system, run_smoke
from repro.live.peer import PeerConfig, start_peer
from repro.live.server import start_correction_server
from repro.live.transport import (
    LIVE_TRANSPORT_CONFIG,
    RECEIVE_BUFFER_BYTES,
    SERVER_ID,
    LossyNetwork,
    SegmentChannel,
)
from repro.live.wire import (
    Probe,
    Report,
    Seg,
    SegAck,
    WireError,
    decode,
    encode,
)
from repro.obs.recorder import Recorder, recording
from repro.transport import TransportConfig


class TestSegWire:
    def test_seg_round_trips_probe_and_report(self):
        for inner in (
            Probe(sender="p0", seq=3, send_clock=1.25),
            Report(sender="p0", receiver="p1", seq=3,
                   send_clock=1.25, recv_clock=1.75),
        ):
            seg = Seg(src="p0", dst="p1", seq=9, inner=inner)
            assert decode(encode(seg)) == seg

    def test_segack_round_trips_with_sacks(self):
        ack = SegAck(src="p1", dst="p0", cum=4, sacks=(6, 8))
        assert decode(encode(ack)) == ack
        assert decode(encode(SegAck(src="a", dst="b", cum=0))).sacks == ()

    def test_torn_seg_rejected(self):
        seg = Seg(
            src="p0", dst="p1", seq=1,
            inner=Probe(sender="p0", seq=1, send_clock=0.5),
        )
        data = encode(seg)
        with pytest.raises(WireError):
            decode(data[: len(data) // 2])

    def _forge(self, body):
        """A datagram with a *valid* CRC but a defective body."""
        import zlib

        from repro.live import wire

        body = dict(body, v=wire.WIRE_VERSION)
        body["crc"] = zlib.crc32(wire._canonical(body))
        return wire._canonical(body)

    def test_non_int_sacks_rejected(self):
        with pytest.raises(WireError, match="sacks"):
            decode(self._forge({
                "kind": "segack", "src": "a", "dst": "b", "cum": 1,
                "sacks": ["x"],
            }))

    def test_seg_cannot_carry_query(self):
        with pytest.raises(WireError, match="cannot carry"):
            decode(self._forge({
                "kind": "seg", "src": "a", "dst": "b", "seq": 0,
                "inner": {"kind": "query", "client": "c", "qid": 1},
            }))


def probe(k):
    """A framable payload (segments carry Probe/Report, not raw strings)."""
    return Probe(sender="a", seq=k, send_clock=float(k))


class LossyPipe:
    """Two SegmentChannels joined by an in-memory link that drops the
    first ``drop_first`` data frames in each direction."""

    def __init__(self, drop_first=0, config=None):
        self.drop_first = {"a": drop_first, "b": drop_first}
        self.delivered = {"a": [], "b": []}
        self.unreachable = []
        self.clock = 0.0
        config = config or TransportConfig(
            rto_initial=0.05, rto_max=0.2, backoff=2.0, jitter=0.0,
            window=8, max_retries=4,
        )
        self.channels = {
            name: SegmentChannel(
                name,
                sendto=lambda data, addr, src=name: self._carry(src, data),
                on_deliver=self._on_deliver,
                on_unreachable=lambda peer, undelivered, src=name:
                    self.unreachable.append((src, peer)),
                config=config,
                clock=lambda: self.clock,
            )
            for name in ("a", "b")
        }
        self.channels["a"].register_peer("b", ("127.0.0.1", 1))
        self.channels["b"].register_peer("a", ("127.0.0.1", 2))

    def _carry(self, src, data):
        message = decode(data)
        if isinstance(message, Seg) and self.drop_first[src] > 0:
            self.drop_first[src] -= 1
            return
        dst = "b" if src == "a" else "a"
        self.channels[dst].on_datagram(message, ("127.0.0.1", 99),
                                       self.clock)

    def _on_deliver(self, payload, src, recv_clock):
        self.delivered[src].append(payload)

    def advance(self, until, step=0.01):
        while self.clock < until:
            self.clock += step
            for channel in self.channels.values():
                channel.fire_timers_for_test(self.clock)


# SegmentChannel arms timers on the running asyncio loop; for the pure
# in-memory pipe we fire the machine's timers by hand instead.
def _fire_timers(self, now):
    self._apply(self.machine.on_timer(now))


SegmentChannel.fire_timers_for_test = _fire_timers


class TestSegmentChannel:
    def _run(self, coro):
        return asyncio.run(coro)

    def test_lossless_pipe_delivers_in_order(self):
        async def scenario():
            pipe = LossyPipe()
            for k in range(5):
                pipe.channels["a"].send("b", probe(k))
            return pipe

        pipe = self._run(scenario())
        assert pipe.delivered["a"] == [probe(k) for k in range(5)]
        assert pipe.channels["a"].machine.idle

    def test_dropped_frames_are_retransmitted(self):
        async def scenario():
            pipe = LossyPipe(drop_first=2)
            pipe.channels["a"].send("b", probe(0))
            pipe.channels["a"].send("b", probe(1))
            pipe.advance(until=1.0)
            return pipe

        pipe = self._run(scenario())
        assert sorted(pipe.delivered["a"], key=lambda p: p.seq) == [
            probe(0), probe(1),
        ]
        stats = pipe.channels["a"].machine.stats("b")
        assert stats.retransmits >= 2
        assert stats.delivered == 0  # no reverse traffic
        assert pipe.channels["a"].machine.idle
        assert pipe.unreachable == []

    def test_silent_peer_reported_unreachable(self):
        async def scenario():
            pipe = LossyPipe(drop_first=10 ** 6)
            pipe.channels["a"].send("b", probe(0))
            pipe.advance(until=5.0)
            return pipe

        pipe = self._run(scenario())
        assert pipe.unreachable == [("a", "b")]
        assert pipe.channels["a"].machine.stats("b").undelivered == 1

    def test_unroutable_destination_counted_not_raised(self):
        async def scenario():
            channel = SegmentChannel(
                "a", sendto=lambda data, addr: None,
                on_deliver=lambda payload, src, recv_clock: None,
            )
            channel.send("ghost", probe(0))
            return channel

        with recording(Recorder()) as rec:
            channel = self._run(scenario())
        assert rec.registry.counter("live.transport.unroutable").value == 1
        assert channel.machine.pending("ghost") == 1


class TestDefaults:
    def test_default_server_ingests_default_peers(self):
        """``serve``'s server and two default peers speak one protocol:
        after a drain, every observation the peers accepted is ingested."""
        async def scenario():
            server = await start_correction_server(live_system(complete(2)))
            peers = [
                await start_peer(PeerConfig(
                    processor=p, clock=LiveClock(0.0, epoch=0.0),
                    interval=0.005, rounds=20,
                    report_address=server.address,
                ))
                for p in (0, 1)
            ]
            try:
                peers[0].config.neighbors = {1: peers[1].address}
                peers[1].config.neighbors = {0: peers[0].address}
                await asyncio.wait_for(
                    asyncio.gather(*(peer.start() for peer in peers)), 10.0
                )
                drained = [await peer.drain(5.0) for peer in peers]
                drained.append(await server.channel.drain(5.0))
                accepted = sum(peer.observation_count for peer in peers)
                return (
                    drained, accepted, server.reports_ingested,
                    set(server.channel.stats_by_peer()),
                )
            finally:
                for peer in peers:
                    await peer.stop()
                server.close()

        with recording(Recorder()) as rec:
            drained, accepted, ingested, reporters = asyncio.run(scenario())
        assert all(drained)
        assert accepted == 2 * 20
        assert ingested == accepted
        assert reporters == {0, 1}
        assert rec.registry.counter(
            "live.server.datagrams_unexpected"
        ).value == 0


class TestLossySmoke:
    def test_lossy_loopback_smoke_loses_nothing(self):
        summary = asyncio.run(run_smoke(
            peers=3,
            queries=60,
            warmup_observations=18,
            interval=0.02,
            concurrency=4,
            net=LossyNetwork(loss=0.25, reorder=0.1, seed=7),
            net_seed=7,
            drain_timeout=15.0,
        ))
        transport = summary["transport"]
        assert transport["drained"]
        assert transport["lost_observations"] == 0
        assert transport["totals"]["retransmits"] > 0
        assert transport["net"]["dropped"] > 0
        assert summary["replay_ok"]
        assert summary["ok_answers"] == summary["queries"]

    def test_reliable_default_config(self):
        assert LIVE_TRANSPORT_CONFIG.rto_initial < 1.0
        assert SERVER_ID == "@server"

    def test_lossy_network_counters(self):
        sent = []

        class FakeTransport:
            def sendto(self, data, addr):
                sent.append((data, addr))

        async def scenario():
            net = LossyNetwork(loss=0.5, reorder=0.0, seed=0)
            for _ in range(40):
                net.send(FakeTransport(), b"x", ("127.0.0.1", 1))
            return net

        net = asyncio.run(scenario())
        counters = net.counters()
        assert counters["dropped"] > 0
        assert counters["passed"] > 0
        assert counters["dropped"] + counters["passed"] == 40
        assert len(sent) == counters["passed"]
        with pytest.raises(ValueError):
            LossyNetwork(loss=1.0)


def _granted_receive_buffer() -> int:
    """The buffer the kernel grants for a RECEIVE_BUFFER_BYTES request.

    Linux caps the request at ``net.core.rmem_max`` (and reports double
    the capped value); other platforms grant it as asked.
    """
    try:
        rmem_max = int(Path("/proc/sys/net/core/rmem_max").read_text())
    except OSError:
        return RECEIVE_BUFFER_BYTES
    return min(RECEIVE_BUFFER_BYTES, rmem_max)


class TestReceiveBuffer:
    def test_server_and_peer_sockets_get_the_large_buffer(self):
        async def scenario():
            server = await start_correction_server(live_system(complete(2)))
            peer = await start_peer(
                PeerConfig(processor=0, clock=LiveClock(0.0, epoch=0.0))
            )
            try:
                return [
                    endpoint._transport.get_extra_info("socket").getsockopt(
                        socket.SOL_SOCKET, socket.SO_RCVBUF
                    )
                    for endpoint in (server, peer)
                ]
            finally:
                server.close()
                await peer.stop()

        for size in asyncio.run(scenario()):
            assert size >= _granted_receive_buffer()
