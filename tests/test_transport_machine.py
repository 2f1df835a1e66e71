"""Unit tests for the pure reliable-delivery state machine.

The machine (:mod:`repro.transport.machine`) is driver-agnostic: these
tests drive it directly with explicit clocks and hand-carried frames --
no scheduler, no sockets -- and pin the protocol invariants both the
simulator and the live service rely on.
"""

import pytest

from repro.transport import (
    AckSegment,
    ChannelStats,
    DataSegment,
    Deliver,
    Emit,
    PeerUnreachable,
    ReliableTransport,
    TransportConfig,
    TransportError,
    aggregate_stats,
    link_ledger,
)


def carry(actions, machines, now):
    """Deliver every emitted frame to its destination machine; return
    the non-Emit actions plus whatever the receivers produced."""
    out = []
    for action in actions:
        if isinstance(action, Emit):
            frame = action.frame
            out.extend(carry(
                machines[frame.dst].on_frame(frame, now), machines, now
            ))
        else:
            out.append(action)
    return out


class TestConfig:
    def test_defaults_valid(self):
        TransportConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rto_initial": 0.0},
            {"rto_initial": 2.0, "rto_max": 1.0},
            {"backoff": 0.5},
            {"jitter": -0.1},
            {"jitter": 1.0},
            {"window": 0},
            {"max_retries": -1},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(TransportError):
            TransportConfig(**kwargs)

    def test_retry_offsets_back_off_and_cap(self):
        config = TransportConfig(
            rto_initial=1.0, rto_max=4.0, backoff=2.0, jitter=0.0,
            max_retries=4,
        )
        # rto sequence 1, 2, 4, 4 (capped); offsets are cumulative.
        assert config.retry_offsets() == (1.0, 3.0, 7.0, 11.0)

    def test_worst_case_delay_adds_frame_bound(self):
        config = TransportConfig(
            rto_initial=1.0, rto_max=4.0, backoff=2.0, jitter=0.0,
            max_retries=4,
        )
        assert config.worst_case_delay(2.0) == 13.0
        zero = TransportConfig(jitter=0.0, max_retries=0)
        assert zero.worst_case_delay(2.0) == 2.0

    def test_jitter_widens_offsets(self):
        plain = TransportConfig(rto_initial=1.0, rto_max=8.0, jitter=0.0)
        jittered = TransportConfig(rto_initial=1.0, rto_max=8.0, jitter=0.2)
        for lo, hi in zip(plain.retry_offsets(), jittered.retry_offsets()):
            assert hi == pytest.approx(lo * 1.2)


class TestHappyPath:
    def test_send_deliver_ack_roundtrip(self):
        machines = {
            p: ReliableTransport(p, TransportConfig(jitter=0.0))
            for p in ("a", "b")
        }
        actions = machines["a"].send("b", "hello", now=0.0)
        (emit,) = actions
        assert isinstance(emit.frame, DataSegment)
        assert emit.frame.seq == 0
        delivered = carry(actions, machines, now=0.05)
        assert delivered == [Deliver(src="a", seq=0, payload="hello")]
        assert machines["a"].idle
        assert machines["a"].stats("b").rtt_samples == [pytest.approx(0.05)]
        assert machines["b"].stats("a").delivered == 1
        assert machines["b"].stats("a").acks_sent == 1

    def test_self_send_rejected(self):
        machine = ReliableTransport("a")
        with pytest.raises(TransportError):
            machine.send("a", "x", now=0.0)

    def test_non_frame_rejected(self):
        machine = ReliableTransport("a")
        with pytest.raises(TransportError):
            machine.on_frame("not a frame", now=0.0)


class TestWindow:
    def test_excess_sends_queue_and_drain_on_ack(self):
        config = TransportConfig(window=2, jitter=0.0)
        machine = ReliableTransport("a", config)
        emits = []
        for k in range(5):
            emits.extend(machine.send("b", f"p{k}", now=0.0))
        # Only the window went out; the rest queued.
        assert [e.frame.seq for e in emits] == [0, 1]
        assert machine.pending("b") == 5
        # Cumulative ack for both in-flight segments frees two slots.
        actions = machine.on_frame(
            AckSegment(src="b", dst="a", cum=2), now=0.1
        )
        assert [a.frame.seq for a in actions] == [2, 3]
        assert machine.pending("b") == 3

    def test_sack_releases_out_of_order_segment(self):
        config = TransportConfig(window=4, jitter=0.0)
        machine = ReliableTransport("a", config)
        for k in range(3):
            machine.send("b", f"p{k}", now=0.0)
        machine.on_frame(
            AckSegment(src="b", dst="a", cum=0, sacks=(1,)), now=0.1
        )
        # seq 1 is acked selectively; 0 and 2 still pending.
        assert machine.pending("b") == 2
        assert sorted(machine._send["b"].in_flight) == [0, 2]


class TestReceiver:
    def test_duplicate_suppressed_but_reacked(self):
        machine = ReliableTransport("b")
        frame = DataSegment(src="a", dst="b", seq=0, payload="x")
        first = machine.on_frame(frame, now=0.0)
        assert any(isinstance(a, Deliver) for a in first)
        second = machine.on_frame(frame, now=0.1)
        # No second delivery, but the ack is resent (ours may have died).
        assert not any(isinstance(a, Deliver) for a in second)
        acks = [a for a in second
                if isinstance(a, Emit) and isinstance(a.frame, AckSegment)]
        assert len(acks) == 1 and acks[0].frame.cum == 1
        assert machine.stats("a").duplicates == 1
        assert machine.stats("a").acks_sent == 2

    def test_out_of_order_sacked_then_cum_advances(self):
        machine = ReliableTransport("b")
        out = machine.on_frame(
            DataSegment(src="a", dst="b", seq=1, payload="y"), now=0.0
        )
        ack = [a.frame for a in out if isinstance(a, Emit)
               and isinstance(a.frame, AckSegment)][0]
        assert ack.cum == 0 and ack.sacks == (1,)
        out = machine.on_frame(
            DataSegment(src="a", dst="b", seq=0, payload="x"), now=0.1
        )
        ack = [a.frame for a in out if isinstance(a, Emit)
               and isinstance(a.frame, AckSegment)][0]
        assert ack.cum == 2 and ack.sacks == ()


class TestRetransmission:
    def test_timer_backs_off_then_gives_up(self):
        config = TransportConfig(
            rto_initial=1.0, rto_max=4.0, backoff=2.0, jitter=0.0,
            max_retries=2,
        )
        machine = ReliableTransport("a", config)
        machine.send("b", "x", now=0.0)
        assert machine.next_timeout() == pytest.approx(1.0)
        # First retransmission at 1.0; next timer doubles.
        (emit,) = machine.on_timer(1.0)
        assert isinstance(emit.frame, DataSegment)
        assert machine.next_timeout() == pytest.approx(3.0)
        (emit,) = machine.on_timer(3.0)
        assert isinstance(emit.frame, DataSegment)
        assert machine.next_timeout() == pytest.approx(7.0)
        # max_retries exhausted: the third firing gives up.
        (give_up,) = machine.on_timer(7.0)
        assert isinstance(give_up, PeerUnreachable)
        assert give_up.undelivered == ("x",)
        assert machine.unreachable == {"b"}
        assert machine.next_timeout() is None
        stats = machine.stats("b")
        assert stats.retransmits == 2
        assert stats.timeouts == 3
        assert stats.give_ups == 1
        assert stats.undelivered == 1

    def test_give_up_surfaces_queue_and_kills_channel(self):
        config = TransportConfig(
            rto_initial=1.0, rto_max=1.0, jitter=0.0, window=1,
            max_retries=0,
        )
        machine = ReliableTransport("a", config)
        machine.send("b", "x", now=0.0)
        machine.send("b", "y", now=0.0)  # queued behind the window
        (give_up,) = machine.on_timer(1.0)
        assert give_up.undelivered == ("x", "y")
        # Later sends are refused, loudly.
        assert machine.send("b", "z", now=2.0) == []
        assert machine.stats("b").dropped_unreachable == 1
        assert machine.idle

    def test_timer_is_noop_before_deadline(self):
        config = TransportConfig(rto_initial=1.0, rto_max=8.0, jitter=0.0)
        machine = ReliableTransport("a", config)
        machine.send("b", "x", now=0.0)
        assert machine.on_timer(0.5) == []
        assert machine.stats("b").timeouts == 0

    def test_karn_rule_skips_retransmitted_rtt(self):
        config = TransportConfig(rto_initial=1.0, rto_max=8.0, jitter=0.0)
        machine = ReliableTransport("a", config)
        machine.send("b", "x", now=0.0)
        machine.on_timer(1.0)  # retransmitted: ack now ambiguous
        machine.on_frame(AckSegment(src="b", dst="a", cum=1), now=1.2)
        assert machine.stats("b").rtt_samples == []
        assert machine.idle


class TestDeterminism:
    def _schedule(self, seed):
        config = TransportConfig(
            rto_initial=1.0, rto_max=16.0, backoff=2.0, jitter=0.3,
            max_retries=4,
        )
        machine = ReliableTransport("a", config, seed=seed)
        machine.send("b", "x", now=0.0)
        deadlines = []
        while (t := machine.next_timeout()) is not None:
            deadlines.append(t)
            machine.on_timer(t)
        return deadlines

    def test_same_seed_same_retransmit_schedule(self):
        assert self._schedule(7) == self._schedule(7)

    def test_different_seed_different_jitter(self):
        assert self._schedule(7) != self._schedule(8)

    def test_seed_streams_keyed_by_endpoint(self):
        config = TransportConfig(jitter=0.5)
        a = ReliableTransport("a", config, seed=0)
        b = ReliableTransport("b", config, seed=0)
        a.send("b", "x", now=0.0)
        b.send("a", "x", now=0.0)
        # Same seed, different endpoints: no lockstep retransmission.
        assert a.next_timeout() != b.next_timeout()


class TestObserverAndStats:
    def test_observer_sees_every_counter(self):
        events = []
        machine = ReliableTransport(
            "a",
            TransportConfig(rto_initial=1.0, rto_max=1.0, jitter=0.0,
                            max_retries=0),
            observer=lambda ev, src, dst, v: events.append((ev, src, dst, v)),
        )
        machine.send("b", "x", now=0.0)
        machine.on_timer(1.0)
        names = [e[0] for e in events]
        assert names == [
            "handed", "segments_sent", "timeouts", "give_ups", "undelivered",
        ]
        assert all(src == "a" and dst == "b" for _, src, dst, _ in events)

    def test_aggregate_stats_sums_channels(self):
        a = ChannelStats(handed=2, delivered=1, rtt_samples=[0.1])
        b = ChannelStats(handed=3, delivered=3, rtt_samples=[0.2, 0.3])
        total = aggregate_stats({"x": a, "y": b})
        assert total["handed"] == 5.0
        assert total["delivered"] == 4.0
        assert total["rtt_count"] == 3.0


class TestLedger:
    def test_give_up_after_lost_acks_counts_payload_once(self):
        """One data segment is delivered, then every ack is dropped
        until the sender gives up.  The give-up surfaces the payload,
        but it did arrive: the ledger counts it once, as delivered."""
        cfg = TransportConfig(
            rto_initial=1.0, rto_max=1.0, jitter=0.0, max_retries=2
        )
        a, b = ReliableTransport("a", cfg), ReliableTransport("b", cfg)
        [emit] = a.send("b", "payload", 0.0)
        assert isinstance(b.on_frame(emit.frame, 0.0)[0], Deliver)
        give_ups = []
        for now in range(1, 20):
            for action in a.on_timer(float(now)):
                if isinstance(action, Emit):
                    b.on_frame(action.frame, float(now))  # ack dropped
                elif isinstance(action, PeerUnreachable):
                    give_ups.append(action)
            if give_ups:
                break
        assert [g.undelivered for g in give_ups] == [("payload",)]
        assert link_ledger(a, "b", b) == {
            "handed": 1,
            "delivered": 1,
            "undelivered": 0,
            "dropped_unreachable": 0,
            "pending": 0,
            "lost": 0,
        }
        # Without the receiver's side the payload reads as surfaced.
        unobserved = link_ledger(a, "b")
        assert unobserved["delivered"] == 0
        assert unobserved["undelivered"] == 1
        assert unobserved["lost"] == 0

    def test_delivered_before_its_ack_counts_once(self):
        """A segment the receiver delivered is delivered, not pending,
        while its ack is still on the way back."""
        a, b = ReliableTransport("a"), ReliableTransport("b")
        [emit] = a.send("b", "payload", 0.0)
        b.on_frame(emit.frame, 0.0)  # the ack has not reached a yet
        ledger = link_ledger(a, "b", b)
        assert (ledger["delivered"], ledger["pending"]) == (1, 0)
        assert ledger["lost"] == 0
