"""Instrumentation integration: sim, pipeline, online, EngineStats.

Checks that the hot paths report into an enabled recorder, that the
refactored :class:`EngineStats` keeps its original shape, is thread-safe
and mergeable, and that the no-op default leaves results untouched.
"""

import threading

import pytest

from repro.core.synchronizer import ClockSynchronizer
from repro.engine.stats import EngineStats
from repro.extensions.online import OnlineSynchronizer
from repro.graphs import ring
from repro.obs import MetricsRegistry, recording
from repro.obs.report import aggregate_spans
from repro.workloads.scenarios import bounded_uniform


def _scenario(n=5, seed=0):
    return bounded_uniform(ring(n), lb=1.0, ub=3.0, seed=seed)


class TestSimInstrumentation:
    def test_run_summary_matches_metrics(self):
        scenario = _scenario()
        with recording() as rec:
            alpha = scenario.run()
        summary = scenario.last_run_summary
        assert summary is not None
        assert summary.events_processed > 0
        assert summary.messages_delivered == len(alpha.message_records())
        assert summary.messages_sent == summary.messages_delivered
        assert summary.messages_dropped == 0
        assert summary.peak_queue_depth >= 1
        registry = rec.registry
        assert registry.counter("sim.events_processed").value == (
            summary.events_processed
        )
        assert registry.counter("sim.messages.delivered").value == (
            summary.messages_delivered
        )
        assert registry.gauge("sim.scheduler.peak_queue_depth").value == (
            summary.peak_queue_depth
        )
        depth = registry.histogram("sim.scheduler.queue_depth")
        assert depth.count == summary.events_processed

    def test_loss_shows_up_as_dropped(self):
        from repro.delays.bounds import lower_bounds_only
        from repro.delays.distributions import UniformDelay
        from repro.delays.system import System
        from repro.faults import FaultPlan, MessageLoss
        from repro.sim.network import NetworkSimulator
        from repro.sim.protocols import probe_automata, probe_schedule

        topo = ring(4)
        system = System.uniform(topo, lower_bounds_only(1.0))
        samplers = {link: UniformDelay(1.0, 3.0) for link in topo.links}
        starts = {p: 0.0 for p in topo.nodes}
        lose_all = FaultPlan(faults=(MessageLoss(rate=1.0),))
        sim = NetworkSimulator(
            system, samplers, starts, seed=1, faults=lose_all
        )
        sim.run(probe_automata(topo, probe_schedule(2, 1.0, 1.0)))
        summary = sim.last_run_summary
        assert summary.messages_sent > 0
        assert summary.messages_dropped == summary.messages_sent
        assert summary.messages_delivered == 0

    def test_summary_available_without_recorder(self):
        scenario = _scenario()
        scenario.run()
        assert scenario.last_run_summary.events_processed > 0


class TestPipelineInstrumentation:
    def test_spans_nest_sim_pipeline_engine(self):
        scenario = _scenario()
        with recording() as rec:
            alpha = scenario.run()
            result = ClockSynchronizer(scenario.system).from_execution(alpha)
        names = {s.name for s in rec.tracer.finished()}
        assert {"sim.run", "pipeline.from_views", "pipeline.shifts",
                "engine.global_estimates", "engine.shifts"} <= names
        root = aggregate_spans(rec.tracer.finished())
        pipeline = root.children["pipeline.from_views"]
        assert "pipeline.global_estimates" in pipeline.children
        assert (
            "engine.global_estimates"
            in pipeline.children["pipeline.global_estimates"].children
        )
        gauges = rec.registry
        assert gauges.gauge("pipeline.precision").value == pytest.approx(
            result.precision
        )
        spread = max(result.corrections.values()) - min(
            result.corrections.values()
        )
        assert gauges.gauge("pipeline.correction_spread").value == (
            pytest.approx(spread)
        )

    def test_noop_recorder_leaves_results_identical(self):
        scenario = _scenario(seed=3)
        alpha = scenario.run()
        plain = ClockSynchronizer(scenario.system).from_execution(alpha)
        with recording():
            traced = ClockSynchronizer(scenario.system).from_execution(alpha)
        assert plain.precision == traced.precision
        assert plain.corrections == traced.corrections


class TestOnlineInstrumentation:
    def test_cache_hits_and_recompute_counters(self):
        scenario = _scenario(seed=2)
        views = scenario.run().views()
        with recording() as rec:
            online = OnlineSynchronizer(scenario.system, backend="numpy")
            ingested = online.ingest_views(views)
            online.result()
            online.result()  # cached
            # a slightly tighter extreme forces a refresh; the numpy
            # engine repairs the cached closure incrementally
            edge = next(iter(scenario.system.topology.links))
            current = online.edge_stats(edge[0], edge[1]).min_delay
            online.observe(edge[0], edge[1], current - 0.01)
            online.result()
        registry = rec.registry
        assert registry.counter("online.observations").value == ingested + 1
        assert registry.counter("online.cache_hits").value == 1
        assert registry.counter("online.full_recomputes").value == 1
        assert registry.counter("online.incremental_repairs").value == 1


class TestEngineStats:
    def test_snapshot_shape_unchanged(self):
        stats = EngineStats()
        with stats.stage("shifts"):
            pass
        stats.count("shifts.nudge_retries", 2)
        snap = stats.snapshot()
        assert set(snap) == {"timings", "counters"}
        assert set(snap["timings"]) == {"shifts"}
        assert snap["counters"] == {"shifts.calls": 1,
                                    "shifts.nudge_retries": 2}
        assert stats.total_seconds() == sum(snap["timings"].values())

    def test_reset_zeroes_everything(self):
        stats = EngineStats()
        with stats.stage("a"):
            pass
        stats.reset()
        assert stats.timings == {}
        assert stats.counters == {}

    def test_thread_safety_of_interleaved_stages(self):
        stats = EngineStats()

        def work():
            for _ in range(200):
                with stats.stage("stage"):
                    pass
                stats.count("events")

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert stats.counters["stage.calls"] == 1600
        assert stats.counters["events"] == 1600

    def test_merge_aggregates_across_engines(self):
        a, b = EngineStats(), EngineStats()
        with a.stage("shifts"):
            pass
        with b.stage("shifts"):
            pass
        b.count("relaxed", 3)
        a.merge(b)
        assert a.counters["shifts.calls"] == 2
        assert a.counters["relaxed"] == 3
        assert a.timings["shifts"] >= b.timings["shifts"]
        # b is untouched
        assert b.counters["shifts.calls"] == 1

    def test_merge_shared_registry_raises(self):
        registry = MetricsRegistry()
        a = EngineStats(registry=registry)
        b = EngineStats(registry=registry)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_enabled_recorder_shares_registry_and_emits_spans(self):
        with recording() as rec:
            stats = EngineStats()
            with stats.stage("global_estimates"):
                pass
        assert stats.registry is rec.registry
        assert (
            rec.registry.counter("engine.global_estimates.calls").value == 1
        )
        assert [s.name for s in rec.tracer.finished()] == [
            "engine.global_estimates"
        ]

    def test_disabled_recorder_keeps_private_registry(self):
        a, b = EngineStats(), EngineStats()
        assert a.registry is not b.registry
