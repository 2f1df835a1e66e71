"""The asyncio UDP probe peer (repro.live.peer).

ISSUE requirements covered here:

* two peers exchanging probes over real loopback UDP sockets produce
  the Lemma 6.1 observations (both clock reads per probe);
* probes arrive framed in transport segments; a raw (unframed) probe
  is outside input and is dropped, never recorded;
* torn, duplicated and reordered datagrams degrade coverage via drop
  counters -- they never crash a peer and never corrupt observations;
* accepted observations are forwarded to the configured report address
  and the peer's own views feed the model layer.
"""

import asyncio

import pytest

from repro.live.clock import LiveClock, ManualClock
from repro.live.peer import PeerConfig, ProbePeer, start_peer
from repro.live.wire import Probe, Query, Report, Seg, decode, encode
from repro.obs.recorder import Recorder, recording


class FakeTransport:
    """Collects sendto calls; enough transport for datagram_received."""

    def __init__(self):
        self.sent = []

    def sendto(self, data, addr):
        self.sent.append((data, addr))

    def get_extra_info(self, name):
        return ("127.0.0.1", 12345) if name == "sockname" else None

    def close(self):
        pass


def make_peer(**overrides):
    config = PeerConfig(
        processor="q",
        clock=ManualClock(offset=0.0, now=10.0),
        neighbors={"p": ("127.0.0.1", 1)},
        report_address=overrides.pop("report_address", None),
    )
    peer = ProbePeer(config, **overrides)
    peer.connection_made(FakeTransport())
    return peer


def framed(probe, seg_seq=None):
    """``probe`` as a peer sends it: inside a transport segment (by
    default numbered like the probe itself)."""
    return encode(Seg(
        src=probe.sender, dst="q",
        seq=probe.seq if seg_seq is None else seg_seq, inner=probe,
    ))


class TestDegradation:
    def test_accepted_probe_becomes_observation(self):
        peer = make_peer()
        probe = Probe(sender="p", seq=0, send_clock=9.5)
        peer.datagram_received(framed(probe), ("127.0.0.1", 1))
        assert peer.records == (
            Report(sender="p", receiver="q", seq=0, send_clock=9.5,
                   recv_clock=10.0),
        )
        assert peer.records[0].estimated_delay == 0.5

    def test_torn_datagram_dropped_counted(self):
        peer = make_peer()
        data = framed(Probe(sender="p", seq=0, send_clock=9.5))
        with recording(Recorder()) as rec:
            peer.datagram_received(data[:10], ("127.0.0.1", 1))
            peer.datagram_received(b"\xff garbage", ("127.0.0.1", 1))
        assert peer.records == ()
        assert rec.registry.counter(
            "live.peer.datagrams_invalid"
        ).value == 2

    def test_duplicate_first_delivery_wins(self):
        # Fresh segment numbers: the copies get past the transport's own
        # duplicate suppression, so the probe-level dedupe is what acts.
        peer = make_peer()
        early = Probe(sender="p", seq=0, send_clock=9.5)
        late = Probe(sender="p", seq=0, send_clock=9.9)
        with recording(Recorder()) as rec:
            peer.datagram_received(framed(early, 0), ("127.0.0.1", 1))
            peer.config.clock.advance(1.0)
            peer.datagram_received(framed(late, 1), ("127.0.0.1", 1))
            peer.datagram_received(framed(early, 2), ("127.0.0.1", 1))
        assert len(peer.records) == 1
        assert peer.records[0].send_clock == 9.5  # first delivery kept
        assert rec.registry.counter(
            "live.peer.probes_duplicate"
        ).value == 2

    def test_reordered_probes_all_accepted(self):
        peer = make_peer()
        for seq in (2, 0, 1):  # arrival order != sequence order
            peer.datagram_received(
                framed(Probe(sender="p", seq=seq, send_clock=9.0 + seq)),
                ("127.0.0.1", 1),
            )
        assert sorted(r.seq for r in peer.records) == [0, 1, 2]

    def test_unknown_sender_dropped(self):
        peer = make_peer()
        with recording(Recorder()) as rec:
            peer.datagram_received(
                framed(Probe(sender="stranger", seq=0, send_clock=1.0)),
                ("127.0.0.1", 9),
            )
        assert peer.records == ()
        assert rec.registry.counter("live.peer.probes_unknown").value == 1

    def test_non_probe_message_dropped(self):
        peer = make_peer()
        with recording(Recorder()) as rec:
            peer.datagram_received(
                encode(Query(client="p", qid=1)), ("127.0.0.1", 1)
            )
        assert peer.records == ()
        assert rec.registry.counter(
            "live.peer.datagrams_unexpected"
        ).value == 1

    def test_raw_probe_rejected(self):
        peer = make_peer()
        with recording(Recorder()) as rec:
            peer.datagram_received(
                encode(Probe(sender="p", seq=0, send_clock=9.5)),
                ("127.0.0.1", 1),
            )
        assert peer.records == ()
        assert rec.registry.counter(
            "live.peer.datagrams_unexpected"
        ).value == 1
        assert peer._transport.sent == []  # not even acked

    def test_accepted_report_forwarded(self):
        async def scenario():
            # Forwarding arms a retransmit timer: needs a running loop.
            peer = make_peer(report_address=("127.0.0.1", 777))
            peer.datagram_received(
                framed(Probe(sender="p", seq=0, send_clock=9.0)),
                ("127.0.0.1", 1),
            )
            peer.channel.close()
            return peer

        peer = asyncio.run(scenario())
        [data] = [
            data for data, addr in peer._transport.sent
            if addr == ("127.0.0.1", 777)
        ]
        forwarded = decode(data)
        assert isinstance(forwarded, Seg)
        assert forwarded.inner == peer.records[0]

    def test_views_cover_received_traffic(self):
        peer = make_peer()
        peer.datagram_received(
            framed(Probe(sender="p", seq=0, send_clock=9.0)),
            ("127.0.0.1", 1),
        )
        views = peer.views()
        assert views["q"].receive_clock_times() == {0: 10.0}


class TestLoopbackRoundTrip:
    def test_two_peers_exchange_real_datagrams(self):
        async def scenario():
            clock_p = LiveClock(0.25, epoch=0.0)
            clock_q = LiveClock(-0.25, epoch=0.0)
            reports = []
            p = await start_peer(
                PeerConfig(processor="p", clock=clock_p, interval=0.005)
            )
            q = await start_peer(
                PeerConfig(processor="q", clock=clock_q, interval=0.005),
                on_report=reports.append,
            )
            try:
                p.config.neighbors = {"q": q.address}
                q.config.neighbors = {"p": p.address}
                p.start()
                q.start()
                deadline = asyncio.get_running_loop().time() + 5.0
                while (p.observation_count < 3
                       or q.observation_count < 3):
                    if asyncio.get_running_loop().time() > deadline:
                        raise TimeoutError("no probe traffic on loopback")
                    await asyncio.sleep(0.005)
            finally:
                await p.stop()
                await q.stop()
            return p, q, reports

        p, q, reports = asyncio.run(scenario())
        # Every observation pairs both endpoint clock reads; real
        # loopback delay is tiny and nonnegative, so the offset of the
        # estimate is dominated by the injected clock offsets.
        for report in q.records:
            assert report.sender == "p" and report.receiver == "q"
            # d~ = d + (offset_q - offset_p); loopback d is < 0.5s here.
            assert -0.5 < report.estimated_delay < 0.0 + 0.5
        assert [r.receiver for r in reports] == ["q"] * len(reports)
        assert p.rounds_sent >= 3 and q.rounds_sent >= 3

    def test_probe_rounds_limit_respected(self):
        async def scenario():
            p = await start_peer(
                PeerConfig(
                    processor="p",
                    clock=LiveClock(0.0, epoch=0.0),
                    interval=0.001,
                    rounds=2,
                )
            )
            q = await start_peer(
                PeerConfig(processor="q", clock=LiveClock(0.0, epoch=0.0))
            )
            try:
                p.config.neighbors = {"q": q.address}
                task = p.start()
                await asyncio.wait_for(task, timeout=5.0)
            finally:
                await p.stop()
                await q.stop()
            return p

        p = asyncio.run(scenario())
        assert p.rounds_sent == 2

    def test_send_without_transport_raises(self):
        peer = ProbePeer(
            PeerConfig(processor="p", clock=ManualClock(0.0, now=0.0))
        )
        with pytest.raises(RuntimeError, match="transport"):
            peer.send_probe_round(0)
