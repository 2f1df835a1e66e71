"""``repro.transport``: the shared reliable-delivery state machine.

One protocol, two drivers:

* :mod:`repro.sim.transport` runs :class:`ReliableTransport` over the
  discrete-event scheduler + fault injector, so simulated message
  delays *emerge* from retransmission, backoff, and loss;
* :mod:`repro.live.transport` runs the same machine over asyncio UDP,
  so the live peers survive real datagram loss.

This package also owns the telemetry bridge both drivers share: the
machine's observer events become ``transport.*`` counters in the
ambient metrics registry (:func:`recorder_observer`), and
:func:`transport_counter_snapshot` scrapes them back out for heartbeats
and ``campaign status``.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

from repro.obs.recorder import get_recorder
from repro.transport.machine import (
    OBSERVER_EVENTS,
    AckSegment,
    ChannelStats,
    DataSegment,
    Deliver,
    Emit,
    PeerUnreachable,
    ReliableTransport,
    TransportConfig,
    TransportError,
    link_ledger,
)

#: Metric namespace shared by both drivers (sim and live), so one
#: dashboard/scrape path covers either runtime.
METRIC_PREFIX = "transport"

#: Machine events that also get a per-link counter (the satellite
#: "diagnose a lossy path from existing telemetry" set).
PER_LINK_EVENTS = frozenset({"retransmits", "timeouts", "give_ups"})

#: Buckets for the transport RTT histogram (seconds or sim-time units).
RTT_BUCKETS = (
    1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def recorder_observer(recorder=None):
    """An observer callback wiring a machine into the metrics registry.

    Counter names: ``transport.<event>`` totals, plus
    ``transport.link.<src>-><dst>.<event>`` for the per-link diagnosis
    set, plus a ``transport.rtt_seconds`` histogram.  Names go through
    the Prometheus exporter's sanitizer unchanged in meaning.
    """

    def observe(event: str, src: Any, dst: Any, value: float) -> None:
        rec = recorder if recorder is not None else get_recorder()
        if not rec.enabled:
            return
        if event == "rtt":
            rec.histogram(
                f"{METRIC_PREFIX}.rtt_seconds",
                RTT_BUCKETS,
                "segment round-trip time (first-transmission acks only)",
            ).observe(value)
            return
        rec.count(f"{METRIC_PREFIX}.{event}", value)
        if event in PER_LINK_EVENTS:
            rec.count(f"{METRIC_PREFIX}.link.{src!r}->{dst!r}.{event}", value)

    return observe


def transport_counter_snapshot(
    recorder=None, *, per_link: bool = True
) -> Dict[str, float]:
    """Scrape ``transport.*`` counters from a recorder's registry.

    Returns ``{}`` when observability is off or no transport ran --
    heartbeats include the section only when there is something to say.
    """
    rec = recorder if recorder is not None else get_recorder()
    if not rec.enabled:
        return {}
    counters: Mapping[str, float] = rec.registry.counters(
        prefix=f"{METRIC_PREFIX}."
    )
    if per_link:
        return dict(counters)
    return {
        name: value
        for name, value in counters.items()
        if not name.startswith(f"{METRIC_PREFIX}.link.")
    }


def aggregate_stats(
    stats_by_peer: Mapping[Any, ChannelStats]
) -> Dict[str, float]:
    """Sum per-peer :class:`ChannelStats` into one counter dict."""
    totals: Dict[str, float] = {}
    for stats in stats_by_peer.values():
        for name, value in stats.as_dict().items():
            totals[name] = totals.get(name, 0.0) + value
    return totals


__all__ = [
    "METRIC_PREFIX",
    "OBSERVER_EVENTS",
    "PER_LINK_EVENTS",
    "RTT_BUCKETS",
    "AckSegment",
    "ChannelStats",
    "DataSegment",
    "Deliver",
    "Emit",
    "PeerUnreachable",
    "ReliableTransport",
    "TransportConfig",
    "TransportError",
    "aggregate_stats",
    "link_ledger",
    "recorder_observer",
    "transport_counter_snapshot",
]
