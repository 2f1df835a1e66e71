"""Tests of the benchmark's own helpers: spans, host speed, percentiles,
load, checks."""

from __future__ import annotations

import dataclasses
import random
import socket
import statistics

import pytest

from e2e.hostspeed import REFERENCE_S, WINDOW, HostSpeed
from e2e.loadgen import run_open_loop
from e2e.stats import TooFewSamples, min_samples, percentile
from e2e.trace import Tracer, self_times, traced
from e2e.workloads import delivery_stream, online_matches


def test_self_time_subtracts_children_from_a_span_tree():
    spans = [
        ("op", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 5.0, 9.0, 0),
        ("c", 2.0, 3.0, 1),
        ("a", 6.0, 7.0, 2),
    ]
    times = self_times(spans)
    assert times["op"] == (1, pytest.approx(3.0))
    assert times["a"] == (2, pytest.approx(2.0 + 1.0))
    assert times["b"] == (1, pytest.approx(3.0))
    assert times["c"] == (1, pytest.approx(1.0))
    total = sum(seconds for _, seconds in times.values())
    assert total == pytest.approx(10.0)  # self times tile the root


def test_self_time_counts_overlapping_children_once_and_skips_open_spans():
    spans = [("p", 0.0, 10.0, -1), ("x", 1.0, 5.0, 0), ("y", 3.0, 12.0, 0), None]
    assert self_times(spans)["p"] == (1, pytest.approx(1.0))


def test_traced_wraps_every_binding_and_restores_them():
    import repro.live.server as server
    import repro.live.wire as wire

    original = wire.encode
    assert server.encode is original
    tracer = Tracer()
    layer = ("live.wire.encode", "repro.live.wire", "encode")
    method = ("live.trace.append", "repro.live.trace", "ProbeLog.append")
    with traced(tracer, [layer, method]):
        assert server.encode is wire.encode is not original
        server.encode(wire.Query(client=0, qid=1))
    assert wire.encode is original and server.encode is original
    from repro.live.trace import ProbeLog

    assert "append" in ProbeLog.__dict__
    assert not hasattr(ProbeLog.__dict__["append"], "__wrapped__")
    assert [s[0] for s in tracer.spans] == ["live.wire.encode"]


def test_host_speed_scales_by_the_median_of_the_latest_probes():
    speed = HostSpeed()
    speed.samples = [9.0, 1e-3, 4e-3, 2e-3]
    assert speed.scale() == pytest.approx(REFERENCE_S / 2e-3)
    assert speed.scale(window=1) == pytest.approx(REFERENCE_S / 2e-3)

    value, seconds, scale = speed.around(lambda: "done")
    assert value == "done" and seconds >= 0.0
    assert len(speed.samples) == 4 + 2 * WINDOW
    probes = speed.samples[-2 * WINDOW:]
    assert scale == pytest.approx(REFERENCE_S / statistics.median(probes))

    speed.maybe_probe()  # the last probe is fresh: no new one
    assert len(speed.samples) == 4 + 2 * WINDOW


def test_percentile_refuses_fewer_than_ten_samples_beyond():
    assert min_samples(0.99) == 1000
    assert min_samples(0.9) == 100
    assert min_samples(0.5) == 20
    assert percentile(list(range(1000)), 0.99) == 989
    assert percentile(list(range(100, 0, -1)), 0.9) == 90
    with pytest.raises(TooFewSamples):
        percentile(list(range(999)), 0.99)
    with pytest.raises(TooFewSamples):
        percentile(list(range(99)), 0.9)


def test_open_loop_counts_timeouts_against_a_silent_socket():
    silent = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    silent.bind(("127.0.0.1", 0))
    try:
        report = run_open_loop(
            silent.getsockname(), [0, 1], rate=200.0, duration=0.25,
            sockets=2, timeout=0.1,
        )
    finally:
        silent.close()
    assert report.sent == 50
    assert report.timeouts == 50
    assert report.failed == 50
    assert report.latencies == [] and report.answers == []
    assert len(report.lateness) == 50


def test_perturbed_correction_trips_the_online_equality_check():
    from repro import ClockSynchronizer, random_connected
    from repro.extensions.online import OnlineSynchronizer
    from repro.workloads import heterogeneous

    scenario = heterogeneous(random_connected(16, 0.2, 5), seed=5)
    alpha = scenario.run()
    views = alpha.views()
    online = OnlineSynchronizer(scenario.system, backend="numpy")
    for sender, receiver, sent, received in delivery_stream(alpha, views):
        online.observe_timestamps(sender, receiver, sent, received)
        online.result()
    streamed = online.result()
    reference = ClockSynchronizer(scenario.system, backend="numpy").from_views(
        views
    )
    assert online_matches(streamed, reference)

    # 1e-10 relative: as small as a subtle repair bug, still 350 times the
    # rounding the gate must allow (2.8e-13 at most over 140 seeds).
    victim = random.Random(0).choice(sorted(streamed.corrections))
    corrections = dict(streamed.corrections)
    corrections[victim] += 1e-10 * max(1.0, abs(corrections[victim]))
    perturbed = dataclasses.replace(streamed, corrections=corrections)
    assert not online_matches(perturbed, reference)
    worse = dataclasses.replace(streamed, precision=streamed.precision * 1.001)
    assert not online_matches(worse, reference)
