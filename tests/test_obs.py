"""Tests for the observability core: spans, metrics, recorder lifecycle."""

import threading

import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NOOP,
    Recorder,
    Tracer,
    get_recorder,
    merge_all,
    recording,
    set_recorder,
)
from repro.obs.recorder import _NULL_SPAN


class TestTracer:
    def test_single_span_times_and_records(self):
        tracer = Tracer()
        with tracer.span("work", size=3) as span:
            assert tracer.current() is span
        assert tracer.current() is None
        (finished,) = tracer.finished()
        assert finished.name == "work"
        assert finished.attributes == {"size": 3}
        assert finished.end is not None
        assert finished.duration >= 0.0

    def test_nesting_sets_parent_ids(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
            with tracer.span("inner2") as inner2:
                assert inner2.parent_id == outer.span_id
        assert outer.parent_id is None
        names = [s.name for s in tracer.finished()]
        assert names == ["inner", "inner2", "outer"]  # completion order

    def test_attribute_propagation_via_set_attribute(self):
        tracer = Tracer()
        with tracer.span("work") as span:
            span.set_attribute("rows", 64)
        assert tracer.finished()[0].attributes["rows"] == 64

    def test_exception_records_span_with_error_attribute(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        (span,) = tracer.finished()
        assert span.attributes["error"] == "RuntimeError"
        assert span.end is not None

    def test_threads_get_independent_stacks(self):
        tracer = Tracer()
        seen = {}

        def worker(name):
            with tracer.span(name) as span:
                seen[name] = span.parent_id

        with tracer.span("main"):
            threads = [
                threading.Thread(target=worker, args=(f"t{i}",))
                for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        # Worker spans must not claim the main thread's span as parent.
        assert all(parent is None for parent in seen.values())
        assert len(tracer.finished()) == 5

    def test_reset_drops_finished(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        tracer.reset()
        assert tracer.finished() == []


class TestCounterGauge:
    def test_counter_accumulates_and_rejects_negative(self):
        c = Counter("c")
        c.add()
        c.add(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.add(-1)

    def test_gauge_last_value_wins(self):
        g = Gauge("g")
        g.set(4.0)
        g.set(2.0)
        g.add(1.0)
        assert g.value == 3.0

    def test_concurrent_counter_adds_do_not_lose_updates(self):
        c = Counter("c")

        def bump():
            for _ in range(1000):
                c.add()

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8000


class TestHistogram:
    def test_bucket_edges_are_inclusive_upper_bounds(self):
        h = Histogram("h", boundaries=(1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 1.5, 2.0, 4.0, 4.5):
            h.observe(value)
        # le=1: {0.5, 1.0}; le=2: {1.5, 2.0}; le=4: {4.0}; +Inf: {4.5}
        assert h.bucket_counts == (2, 2, 1, 1)
        assert h.cumulative_counts() == (2, 4, 5, 6)
        assert h.count == 6
        assert h.sum == pytest.approx(13.5)

    def test_boundaries_must_be_ascending_finite_nonempty(self):
        with pytest.raises(ValueError):
            Histogram("h", boundaries=())
        with pytest.raises(ValueError):
            Histogram("h", boundaries=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", boundaries=(1.0, float("inf")))

    def test_default_buckets_used_when_unspecified(self):
        registry = MetricsRegistry()
        h = registry.histogram("h")
        assert h.boundaries == DEFAULT_BUCKETS

    def test_observe_many_equals_one_observe_per_value(self):
        values = [0.1, 3.0, 1e-17, 2.0, 0.7, 1e16, 0.3, 4.0]
        one, batch = Histogram("a", (1.0, 2.0, 4.0)), Histogram("b", (1.0, 2.0, 4.0))
        one.observe(0.2)
        batch.observe(0.2)
        for value in values:
            one.observe(value)
        batch.observe_many(values)
        batch.observe_many([])
        assert batch.bucket_counts == one.bucket_counts
        assert batch.count == one.count == 9
        # Added left to right, as the single observes add them.
        assert float.hex(batch.sum) == float.hex(one.sum)
        with pytest.raises(TypeError):
            batch.observe_many([1.0, "oops"])
        assert batch.count == 9 and batch.bucket_counts == one.bucket_counts


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")
        with pytest.raises(ValueError):
            registry.histogram("x")

    def test_histogram_boundary_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.histogram("h", boundaries=(1.0, 2.0))
        with pytest.raises(ValueError):
            registry.histogram("h", boundaries=(1.0, 3.0))

    def test_snapshot_shapes(self):
        registry = MetricsRegistry()
        registry.counter("c").add(2)
        registry.gauge("g").set(1.5)
        registry.histogram("h", boundaries=(1.0,)).observe(0.5)
        snap = registry.snapshot()
        assert snap["c"] == {"type": "counter", "value": 2.0}
        assert snap["g"] == {"type": "gauge", "value": 1.5}
        assert snap["h"]["counts"] == [1, 0]

    def test_merge_adds_counters_histograms_takes_gauges(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").add(1)
        b.counter("c").add(2)
        b.gauge("g").set(7.0)
        a.histogram("h", boundaries=(1.0,)).observe(0.5)
        b.histogram("h", boundaries=(1.0,)).observe(2.0)
        a.merge(b)
        assert a.counter("c").value == 3.0
        assert a.gauge("g").value == 7.0
        assert a.histogram("h").bucket_counts == (1, 1)
        assert a.histogram("h").count == 2

    def test_merge_self_raises(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.merge(registry)

    def test_merge_all(self):
        registries = []
        for _ in range(3):
            r = MetricsRegistry()
            r.counter("c").add(1)
            registries.append(r)
        assert merge_all(registries).counter("c").value == 3.0

    def test_reset_by_prefix(self):
        registry = MetricsRegistry()
        registry.counter("engine.a").add(1)
        registry.counter("sim.b").add(1)
        registry.reset("engine.")
        assert "engine.a" not in registry
        assert "sim.b" in registry


class TestNoopRecorder:
    def test_default_recorder_is_noop_and_disabled(self):
        assert get_recorder() is NOOP
        assert NOOP.enabled is False

    def test_noop_span_is_reusable_null_context(self):
        span = NOOP.span("anything", k=1)
        assert span is _NULL_SPAN
        with span as s:
            s.set_attribute("k", 2)  # silently ignored

    def test_noop_instruments_are_inert_singletons(self):
        c = NOOP.counter("c")
        assert c is NOOP.counter("other")
        c.add(5)
        assert c.value == 0.0
        NOOP.gauge("g").set(3)
        NOOP.histogram("h").observe(1.0)
        NOOP.count("x")
        NOOP.set_gauge("y", 1.0)
        NOOP.observe("z", 1.0)
        # nothing was recorded anywhere
        assert NOOP.registry is None and NOOP.tracer is None


class TestRecorderLifecycle:
    def test_recording_installs_and_restores(self):
        before = get_recorder()
        with recording() as rec:
            assert get_recorder() is rec
            assert rec.enabled
            rec.count("x")
            with rec.span("s"):
                pass
        assert get_recorder() is before
        assert rec.registry.counter("x").value == 1.0
        assert len(rec.tracer.finished()) == 1

    def test_recording_restores_on_exception(self):
        before = get_recorder()
        with pytest.raises(RuntimeError):
            with recording():
                raise RuntimeError("boom")
        assert get_recorder() is before

    def test_set_recorder_none_restores_noop(self):
        rec = Recorder()
        previous = set_recorder(rec)
        try:
            assert get_recorder() is rec
        finally:
            set_recorder(previous)
        set_recorder(None) if get_recorder() is not NOOP else None
        assert get_recorder() is NOOP

    def test_recorder_shortcuts_hit_registry(self):
        rec = Recorder()
        rec.count("c", 2)
        rec.set_gauge("g", 4.5)
        rec.observe("h", 0.25)
        assert rec.registry.counter("c").value == 2.0
        assert rec.registry.gauge("g").value == 4.5
        assert rec.registry.histogram("h").count == 1


class TestQuantile:
    """Bucket-interpolated quantiles (repro.obs.report.quantile)."""

    def _histogram(self, values, boundaries=(1.0, 2.0, 4.0)):
        h = Histogram("h", boundaries=boundaries)
        for v in values:
            h.observe(v)
        return h

    def test_empty_histogram_is_nan(self):
        import math

        from repro.obs import quantile

        assert math.isnan(quantile(self._histogram([]), 0.5))

    def test_out_of_range_q_rejected(self):
        from repro.obs import quantile

        with pytest.raises(ValueError, match="quantile"):
            quantile(self._histogram([1.0]), 1.5)

    def test_median_interpolates_within_bucket(self):
        from repro.obs import quantile

        # 4 observations all in bucket (1, 2]: the median lands at the
        # midpoint of the bucket under linear interpolation.
        h = self._histogram([1.5, 1.5, 1.5, 1.5])
        assert quantile(h, 0.5) == pytest.approx(1.5)

    def test_first_bucket_lower_edge_is_zero(self):
        from repro.obs import quantile

        h = self._histogram([0.5, 0.5])
        assert 0.0 < quantile(h, 0.5) <= 1.0

    def test_overflow_clamps_to_last_boundary(self):
        from repro.obs import quantile

        h = self._histogram([100.0, 200.0])
        assert quantile(h, 0.99) == 4.0

    def test_quantiles_are_monotone_in_q(self):
        from repro.obs import quantile

        h = self._histogram([0.5, 1.5, 1.7, 2.5, 3.0, 3.9, 50.0])
        values = [quantile(h, q) for q in (0.1, 0.25, 0.5, 0.75, 0.95)]
        assert values == sorted(values)

    def test_single_bucket_histogram_interpolates_from_zero(self):
        from repro.obs import quantile

        # One finite bucket (0, 2]: quantiles interpolate linearly
        # across it and can never exceed its (only) boundary.
        h = self._histogram([1.0, 1.0, 1.0, 1.0], boundaries=(2.0,))
        assert quantile(h, 0.5) == pytest.approx(1.0)
        assert quantile(h, 1.0) == pytest.approx(2.0)

    def test_all_mass_in_overflow_bucket_clamps(self):
        from repro.obs import quantile

        # Every observation beyond the last finite boundary: any
        # mass-seeking quantile is clamped to that boundary (Prometheus
        # semantics -- the histogram cannot resolve the tail).  q=0 asks
        # for zero observations and resolves to the first (empty)
        # bucket's edge instead.
        h = self._histogram([10.0, 20.0, 30.0])
        for q in (0.2, 0.5, 0.99, 1.0):
            assert quantile(h, q) == 4.0
        assert quantile(h, 0.0) == 1.0

    def test_empty_interior_bucket_returns_its_upper_edge(self):
        from repro.obs import quantile

        # Mass in (0,1] and (2,4] with nothing in between: quantiles
        # landing exactly on the empty bucket resolve to its upper edge
        # rather than dividing by a zero count.
        h = self._histogram([0.5, 0.5, 3.0, 3.0])
        assert quantile(h, 0.5) == pytest.approx(1.0)

    def test_q_edges_on_populated_histogram(self):
        from repro.obs import quantile

        h = self._histogram([0.5, 1.5, 3.0])
        assert quantile(h, 0.0) <= quantile(h, 1.0)
        assert quantile(h, 1.0) == 4.0

    def test_quantiles_table_lists_only_histograms(self):
        from repro.obs import histogram_quantiles_table

        registry = MetricsRegistry()
        registry.counter("c").add()
        registry.histogram("h", boundaries=(1.0, 2.0)).observe(1.5)
        rendered = histogram_quantiles_table(registry).format()
        assert "h" in rendered and "p95" in rendered
        assert "\nc " not in rendered


class TestTelemetryHooks:
    """Recorder observer fan-out and the simulated clock."""

    def test_emit_fans_out_to_observers(self):
        seen = []

        class Probe:
            def on_telemetry(self, kind, data):
                seen.append((kind, data))

        rec = Recorder()
        rec.add_observer(Probe())
        rec.add_observer(Probe())
        rec.emit("x.y", value=3)
        assert seen == [("x.y", {"value": 3}), ("x.y", {"value": 3})]

    def test_observer_without_hook_rejected(self):
        rec = Recorder()
        with pytest.raises(TypeError, match="on_telemetry"):
            rec.add_observer(object())

    def test_remove_observer(self):
        seen = []

        class Probe:
            def on_telemetry(self, kind, data):
                seen.append(kind)

        rec = Recorder()
        probe = Probe()
        rec.add_observer(probe)
        rec.remove_observer(probe)
        rec.remove_observer(probe)  # absent -> no-op
        rec.emit("gone")
        assert seen == []

    def test_noop_recorder_rejects_observers_but_swallows_emit(self):
        with pytest.raises(RuntimeError, match="no-op recorder"):
            NOOP.add_observer(object())
        NOOP.emit("anything", x=1)  # must not raise
        NOOP.set_sim_time(5.0)
        assert NOOP.sim_time is None

    def test_spans_inherit_sim_time(self):
        rec = Recorder()
        rec.set_sim_time(7.5)
        with rec.span("work"):
            pass
        rec.set_sim_time(None)
        with rec.span("later"):
            pass
        first, second = rec.tracer.finished()
        assert first.attributes["sim_time"] == 7.5
        assert "sim_time" not in second.attributes

    def test_explicit_sim_time_attribute_wins(self):
        rec = Recorder()
        rec.set_sim_time(7.5)
        with rec.span("work", sim_time=1.0):
            pass
        (span,) = rec.tracer.finished()
        assert span.attributes["sim_time"] == 1.0
