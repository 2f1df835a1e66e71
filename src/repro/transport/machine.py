"""The reliable-delivery state machine (DESIGN.md section 15).

One :class:`ReliableTransport` instance is one endpoint of a
retransmitting, acknowledged, windowed segment protocol -- the piece
that turns "send this payload to that peer" into the sequence of frames,
timers, and deliveries real lossy networks force on you.  The machine is
**pure and driver-agnostic**: it never touches a socket, a scheduler, or
a clock.  Every entry point takes ``now`` explicitly and returns a list
of :class:`Action` values (:class:`Emit` a frame, :class:`Deliver` a
payload to the application, :class:`PeerUnreachable`); the caller -- the
discrete-event driver in :mod:`repro.sim.transport` or the asyncio
driver in :mod:`repro.live.transport` -- translates actions into its own
world.  That split is what lets the *same* protocol logic produce
emergent message delays in the simulator (seeded, replayable) and
survive real datagram loss on loopback UDP.

Protocol sketch, per destination peer:

* payloads get consecutive sequence numbers and ride in
  :class:`DataSegment` frames; at most ``window`` segments are in
  flight, the rest queue;
* the receiver acknowledges every data frame with an
  :class:`AckSegment` carrying its cumulative next-expected sequence
  plus a bounded set of out-of-order sequences (SACK); duplicates are
  suppressed and re-acked;
* unacked segments retransmit on a timer: the retransmission timeout
  starts at ``rto_initial`` and multiplies by ``backoff`` per attempt
  (capped at ``rto_max``), with a seeded jitter factor so synchronized
  peers do not retransmit in lockstep -- jitter comes from a private
  ``random.Random`` seeded from ``(seed, local id)``, so schedules are
  reproducible;
* after ``max_retries`` retransmissions of any one segment the channel
  gives up: the peer is reported unreachable, everything in flight or
  queued for it is surfaced as unacknowledged (counted, never silently
  lost), and later sends to it are refused.  The receiver may already
  have delivered a surfaced payload whose acks were all lost;
  :func:`link_ledger` counts such a payload once, as delivered.

RTT samples are taken only from segments acked on their first
transmission (Karn's rule: a retransmitted segment's ack is ambiguous).
Every state change is mirrored into per-peer :class:`ChannelStats` and,
when an ``observer`` callback is installed, streamed out as counter
events the drivers feed to the PR 2 metrics registry.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro._types import Time

#: Events the machine reports through its ``observer`` callback.  All are
#: counter increments except ``rtt``, whose value is a seconds sample.
OBSERVER_EVENTS = (
    "handed", "segments_sent", "retransmits", "timeouts", "acks_sent",
    "acks_received", "delivered", "duplicates", "give_ups", "undelivered",
    "dropped_unreachable", "rtt",
)

#: Observer callback: ``(event, local, peer, value)``.
Observer = Callable[[str, Any, Any, float], None]


class TransportError(ValueError):
    """A structurally invalid transport configuration or frame."""


@dataclass(frozen=True)
class TransportConfig:
    """Tuning knobs of one reliable channel (both endpoints share them).

    The defaults suit the simulator's time scale (delay bounds of a few
    units); the live loopback driver installs a sub-second profile.
    """

    #: first retransmission timeout (same time unit as the driver's clock).
    rto_initial: float = 0.2
    #: cap on the backed-off retransmission timeout.
    rto_max: float = 2.0
    #: multiplicative backoff factor per retransmission.
    backoff: float = 2.0
    #: uniform jitter fraction added to every armed timeout (0 = none).
    jitter: float = 0.1
    #: max segments in flight per destination; the rest queue.
    window: int = 32
    #: retransmissions of one segment before the peer is declared
    #: unreachable (so a segment is sent at most ``1 + max_retries`` times).
    max_retries: int = 6
    #: most out-of-order sequence numbers carried per ack (SACK cap).
    max_sacks: int = 32

    def __post_init__(self) -> None:
        if self.rto_initial <= 0 or self.rto_max < self.rto_initial:
            raise TransportError(
                f"need 0 < rto_initial <= rto_max, got "
                f"[{self.rto_initial}, {self.rto_max}]"
            )
        if self.backoff < 1.0:
            raise TransportError(f"backoff must be >= 1, got {self.backoff}")
        if not 0.0 <= self.jitter < 1.0:
            raise TransportError(f"jitter must be in [0, 1), got {self.jitter}")
        if self.window < 1:
            raise TransportError(f"window must be >= 1, got {self.window}")
        if self.max_retries < 0:
            raise TransportError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )

    def retry_offsets(self) -> Tuple[float, ...]:
        """Worst-case (fully jittered) delay of each retransmission.

        Entry ``i`` is the latest time after hand-off at which
        retransmission ``i+1`` can leave, assuming every timer fired as
        late as jitter allows and no ack arrived.
        """
        offsets: List[float] = []
        elapsed = 0.0
        rto = self.rto_initial
        for _ in range(self.max_retries):
            elapsed += rto * (1.0 + self.jitter)
            offsets.append(elapsed)
            rto = min(rto * self.backoff, self.rto_max)
        return tuple(offsets)

    def worst_case_delay(self, frame_ub: float) -> float:
        """Upper bound on the *emergent* delay of a delivered payload.

        The last chance for a copy to leave is the final retransmission
        (see :meth:`retry_offsets`); add the per-frame network upper
        bound and you have a sound a-priori bound for emergent delays --
        the ``ub`` an E17-style experiment attaches to the paper's
        Model 1.  Assumes the segment was not window-queued (callers
        keep outstanding sends per destination below ``window``).
        """
        offsets = self.retry_offsets()
        last_send = offsets[-1] if offsets else 0.0
        return last_send + frame_ub


# ----------------------------------------------------------------------
# Frames and actions
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DataSegment:
    """One framed application payload, ``seq``-numbered per (src, dst)."""

    src: Any
    dst: Any
    seq: int
    payload: Any


@dataclass(frozen=True)
class AckSegment:
    """Cumulative + selective acknowledgement for the reverse channel.

    ``cum`` is the receiver's next expected sequence (everything below
    is delivered); ``sacks`` are out-of-order sequences received above
    ``cum``.
    """

    src: Any
    dst: Any
    cum: int
    sacks: Tuple[int, ...] = ()


@dataclass(frozen=True)
class Emit:
    """Driver must put ``frame`` on the wire toward ``frame.dst``."""

    frame: Any


@dataclass(frozen=True)
class Deliver:
    """Driver must hand ``payload`` (from ``src``) to the application."""

    src: Any
    seq: int
    payload: Any


@dataclass(frozen=True)
class PeerUnreachable:
    """Give-up: ``peer`` stopped acking; ``undelivered`` were never acked.

    A payload in ``undelivered`` may still have reached the peer if only
    its acks were lost; :func:`link_ledger` tells the two cases apart.
    """

    peer: Any
    undelivered: Tuple[Any, ...]


Action = Any  # Emit | Deliver | PeerUnreachable


# ----------------------------------------------------------------------
# Per-peer state
# ----------------------------------------------------------------------

@dataclass
class ChannelStats:
    """Counters for one peer channel (both roles: sender and receiver)."""

    handed: int = 0              # application send() calls (any outcome)
    segments_sent: int = 0       # first transmissions
    retransmits: int = 0
    timeouts: int = 0            # timer fires that acted (retransmit/give-up)
    acks_sent: int = 0
    acks_received: int = 0
    delivered: int = 0           # payloads handed to the application
    duplicates: int = 0          # data frames suppressed as already-seen
    give_ups: int = 0
    undelivered: int = 0         # payloads surfaced (unacked) by a give-up
    dropped_unreachable: int = 0  # send() refused on a dead channel
    rtt_samples: List[float] = field(default_factory=list)

    def as_dict(self) -> Dict[str, float]:
        out = {
            name: float(getattr(self, name))
            for name in (
                "handed", "segments_sent", "retransmits", "timeouts",
                "acks_sent", "acks_received", "delivered", "duplicates",
                "give_ups", "undelivered", "dropped_unreachable",
            )
        }
        out["rtt_count"] = float(len(self.rtt_samples))
        return out


@dataclass
class _Pending:
    seq: int
    payload: Any
    first_sent: Time
    transmissions: int
    rto: float
    next_retry: Time


@dataclass
class _SendChannel:
    next_seq: int = 0
    in_flight: Dict[int, _Pending] = field(default_factory=dict)
    queue: Deque[Any] = field(default_factory=deque)
    dead: bool = False
    #: sequence numbers of the in-flight payloads the give-up surfaced.
    surfaced: Tuple[int, ...] = ()


@dataclass
class _RecvChannel:
    cum: int = 0
    out_of_order: set = field(default_factory=set)


# ----------------------------------------------------------------------
# The machine
# ----------------------------------------------------------------------

class ReliableTransport:
    """One endpoint's reliable-delivery state, for any number of peers.

    All methods are synchronous and side-effect-free beyond internal
    state: they return the :class:`Action` list the driver must apply.
    ``now`` is whatever monotone clock the driver lives in (simulated
    real time, or ``time.monotonic()``); the config's timeouts are in
    the same unit.
    """

    def __init__(
        self,
        local: Any,
        config: Optional[TransportConfig] = None,
        *,
        seed: Any = 0,
        observer: Optional[Observer] = None,
    ) -> None:
        self.local = local
        self.config = config or TransportConfig()
        # A string seed keys the stream to (seed, endpoint) without
        # relying on salted hash(): reproducible across processes.
        self._rng = random.Random(f"{seed}:jitter:{local!r}")
        self._observer = observer
        self._send: Dict[Any, _SendChannel] = {}
        self._recv: Dict[Any, _RecvChannel] = {}
        self._stats: Dict[Any, ChannelStats] = {}
        self.unreachable: set = set()

    # -- bookkeeping -------------------------------------------------------

    def stats(self, peer: Any) -> ChannelStats:
        """The (live, mutable) counters for one peer channel."""
        if peer not in self._stats:
            self._stats[peer] = ChannelStats()
        return self._stats[peer]

    def stats_by_peer(self) -> Dict[Any, ChannelStats]:
        return dict(self._stats)

    def pending(self, peer: Any) -> int:
        """Segments not yet acked (in flight + queued) toward ``peer``."""
        ch = self._send.get(peer)
        if ch is None:
            return 0
        return len(ch.in_flight) + len(ch.queue)

    @property
    def idle(self) -> bool:
        """No channel has unacked or queued segments outstanding."""
        return all(
            not ch.in_flight and not ch.queue for ch in self._send.values()
        )

    def _count(self, event: str, peer: Any, value: float = 1.0) -> None:
        stats = self.stats(peer)
        if event == "rtt":
            stats.rtt_samples.append(value)
        else:
            setattr(stats, event, getattr(stats, event) + int(value))
        if self._observer is not None:
            self._observer(event, self.local, peer, value)

    def _jittered(self, rto: float) -> float:
        if self.config.jitter <= 0:
            return rto
        return rto * (1.0 + self.config.jitter * self._rng.random())

    # -- sending -----------------------------------------------------------

    def send(self, dst: Any, payload: Any, now: Time) -> List[Action]:
        """Hand one payload to the channel toward ``dst``."""
        if dst == self.local:
            raise TransportError(f"{self.local!r} cannot send to itself")
        ch = self._send.setdefault(dst, _SendChannel())
        self._count("handed", dst)
        if ch.dead:
            # The give-up already reported this peer; refusing loudly
            # (counted) beats queueing toward a black hole.
            self._count("dropped_unreachable", dst)
            return []
        if len(ch.in_flight) >= self.config.window:
            ch.queue.append(payload)
            return []
        return [self._transmit(ch, dst, payload, now)]

    def _transmit(
        self, ch: _SendChannel, dst: Any, payload: Any, now: Time
    ) -> Emit:
        seq = ch.next_seq
        ch.next_seq += 1
        rto = self.config.rto_initial
        ch.in_flight[seq] = _Pending(
            seq=seq,
            payload=payload,
            first_sent=now,
            transmissions=1,
            rto=rto,
            next_retry=now + self._jittered(rto),
        )
        self._count("segments_sent", dst)
        return Emit(DataSegment(src=self.local, dst=dst, seq=seq,
                                payload=payload))

    # -- receiving ---------------------------------------------------------

    def on_frame(self, frame: Any, now: Time) -> List[Action]:
        """Process one frame arriving from the wire."""
        if isinstance(frame, DataSegment):
            return self._on_data(frame, now)
        if isinstance(frame, AckSegment):
            return self._on_ack(frame, now)
        raise TransportError(f"not a transport frame: {frame!r}")

    def _on_data(self, frame: DataSegment, now: Time) -> List[Action]:
        src = frame.src
        rch = self._recv.setdefault(src, _RecvChannel())
        actions: List[Action] = []
        if frame.seq < rch.cum or frame.seq in rch.out_of_order:
            self._count("duplicates", src)
        else:
            rch.out_of_order.add(frame.seq)
            while rch.cum in rch.out_of_order:
                rch.out_of_order.discard(rch.cum)
                rch.cum += 1
            actions.append(
                Deliver(src=src, seq=frame.seq, payload=frame.payload)
            )
            self._count("delivered", src)
        # Always re-ack, even duplicates: the duplicate means our
        # previous ack was lost (or is still in flight).
        sacks = tuple(sorted(rch.out_of_order)[: self.config.max_sacks])
        actions.append(
            Emit(AckSegment(src=self.local, dst=src, cum=rch.cum,
                            sacks=sacks))
        )
        self._count("acks_sent", src)
        return actions

    def _on_ack(self, frame: AckSegment, now: Time) -> List[Action]:
        src = frame.src
        self._count("acks_received", src)
        ch = self._send.get(src)
        if ch is None or ch.dead:
            return []
        sacked = set(frame.sacks)
        for seq in sorted(ch.in_flight):
            if seq >= frame.cum and seq not in sacked:
                continue
            pending = ch.in_flight.pop(seq)
            if pending.transmissions == 1:
                # Karn: only a first-transmission ack is unambiguous.
                self._count("rtt", src, now - pending.first_sent)
        actions: List[Action] = []
        while ch.queue and len(ch.in_flight) < self.config.window:
            actions.append(self._transmit(ch, src, ch.queue.popleft(), now))
        return actions

    # -- timers ------------------------------------------------------------

    def next_timeout(self) -> Optional[Time]:
        """Earliest instant :meth:`on_timer` has work to do, or ``None``."""
        deadlines = [
            pending.next_retry
            for ch in self._send.values()
            if not ch.dead
            for pending in ch.in_flight.values()
        ]
        return min(deadlines) if deadlines else None

    def on_timer(self, now: Time) -> List[Action]:
        """Retransmit (or give up on) every segment whose RTO expired."""
        actions: List[Action] = []
        eps = 1e-12
        for dst, ch in self._send.items():
            if ch.dead:
                continue
            for seq in sorted(ch.in_flight):
                pending = ch.in_flight.get(seq)
                if pending is None or pending.next_retry > now + eps:
                    continue
                self._count("timeouts", dst)
                if pending.transmissions > self.config.max_retries:
                    actions.append(self._give_up(ch, dst))
                    break
                pending.transmissions += 1
                pending.rto = min(
                    pending.rto * self.config.backoff, self.config.rto_max
                )
                pending.next_retry = now + self._jittered(pending.rto)
                self._count("retransmits", dst)
                actions.append(
                    Emit(DataSegment(src=self.local, dst=dst, seq=seq,
                                     payload=pending.payload))
                )
        return actions

    def _give_up(self, ch: _SendChannel, dst: Any) -> PeerUnreachable:
        ch.surfaced = tuple(sorted(ch.in_flight))
        undelivered = tuple(
            ch.in_flight[seq].payload for seq in ch.surfaced
        ) + tuple(ch.queue)
        ch.in_flight.clear()
        ch.queue.clear()
        ch.dead = True
        self.unreachable.add(dst)
        self._count("give_ups", dst)
        self._count("undelivered", dst, len(undelivered))
        return PeerUnreachable(peer=dst, undelivered=undelivered)

    def delivered_from(self, src: Any, seqs: Sequence[int]) -> int:
        """How many of ``src``'s sequence numbers ``seqs`` were delivered."""
        rch = self._recv.get(src)
        if rch is None:
            return 0
        return sum(seq < rch.cum or seq in rch.out_of_order for seq in seqs)


def link_ledger(
    sender: ReliableTransport,
    dst: Any,
    receiver: Optional[ReliableTransport] = None,
) -> Dict[str, int]:
    """Where every payload ``sender`` was handed for ``dst`` ended up.

    ``handed == delivered + undelivered + dropped_unreachable + pending
    + lost``: ``delivered`` counts the payloads ``receiver`` (the
    endpoint ``dst``, ``None`` if it is not observable) delivered,
    ``undelivered`` those a give-up surfaced, ``dropped_unreachable``
    the sends refused on a dead channel, and ``pending`` those still
    queued or in flight.  Each payload counts once: one the receiver
    delivered before its ack reached the sender (or ever will, after a
    give-up) is delivered, not pending or undelivered.  ``lost`` is
    zero unless the transport dropped a payload silently.
    """
    stats = sender.stats(dst)
    undelivered = stats.undelivered
    pending = sender.pending(dst)
    delivered = 0
    ch = sender._send.get(dst)
    if receiver is not None:
        delivered = receiver.stats(sender.local).delivered
        if ch is not None:
            undelivered -= receiver.delivered_from(sender.local, ch.surfaced)
            pending -= receiver.delivered_from(sender.local, ch.in_flight)
    return {
        "handed": stats.handed,
        "delivered": delivered,
        "undelivered": undelivered,
        "dropped_unreachable": stats.dropped_unreachable,
        "pending": pending,
        "lost": (
            stats.handed - delivered - undelivered
            - stats.dropped_unreachable - pending
        ),
    }


__all__ = [
    "OBSERVER_EVENTS",
    "AckSegment",
    "ChannelStats",
    "DataSegment",
    "Deliver",
    "Emit",
    "PeerUnreachable",
    "ReliableTransport",
    "TransportConfig",
    "TransportError",
    "link_ledger",
]
