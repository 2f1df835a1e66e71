"""Tests for the online synchronizer (repro.extensions.online)."""

import math

import pytest

from repro.core.errors import InconsistentViewsError
from repro.core.synchronizer import ClockSynchronizer
from repro.delays.system import UnknownLinkError
from repro.extensions.online import OnlineSynchronizer
from repro.graphs.topology import ring
from repro.workloads.scenarios import bounded_uniform, heterogeneous


@pytest.fixture
def scenario():
    return bounded_uniform(ring(5), lb=1.0, ub=3.0, seed=17)


class TestStreamingEqualsBatch:
    def test_ingest_views_matches_batch(self, scenario):
        alpha = scenario.run()
        online = OnlineSynchronizer(scenario.system)
        count = online.ingest_views(alpha.views())
        assert count == len(alpha.message_records())

        batch = ClockSynchronizer(scenario.system).from_execution(alpha)
        streamed = online.result()
        assert streamed.precision == pytest.approx(batch.precision)
        assert streamed.corrections == pytest.approx(batch.corrections)

    def test_message_by_message_matches_batch(self, scenario):
        alpha = scenario.run()
        from repro.core.estimates import estimated_delays

        online = OnlineSynchronizer(scenario.system)
        for edge, delays in estimated_delays(alpha.views()).items():
            for value in delays:
                online.observe(edge[0], edge[1], value)
        batch = ClockSynchronizer(scenario.system).from_execution(alpha)
        assert online.precision() == pytest.approx(batch.precision)

    def test_heterogeneous_system(self):
        scenario = heterogeneous(ring(5), seed=4)
        alpha = scenario.run()
        online = OnlineSynchronizer(scenario.system)
        online.ingest_views(alpha.views())
        batch = ClockSynchronizer(scenario.system).from_execution(alpha)
        assert online.precision() == pytest.approx(batch.precision)


class TestNumpyIncrementalPath:
    def test_streaming_equals_batch_with_incremental_engine(self):
        """On the numpy backend, interleaved refreshes go through the
        incremental closure repair -- and must still equal batch."""
        scenario = bounded_uniform(ring(16), lb=1.0, ub=3.0, probes=2, seed=3)
        alpha = scenario.run()
        from repro.core.estimates import estimated_delays

        online = OnlineSynchronizer(scenario.system, backend="numpy")
        assert online.synchronizer.backend == "numpy"
        stream = [
            (edge, value)
            for edge, delays in sorted(estimated_delays(alpha.views()).items())
            for value in delays
        ]
        for k, (edge, value) in enumerate(stream):
            online.observe(edge[0], edge[1], value)
            if k % 7 == 0:
                online.result()  # force interleaved incremental refreshes
        streamed = online.result()
        batch = ClockSynchronizer(
            scenario.system, backend="numpy"
        ).from_execution(alpha)
        assert streamed.precision == pytest.approx(batch.precision)
        assert streamed.corrections == pytest.approx(batch.corrections)
        counters = online.synchronizer.engine.stats.counters
        assert counters.get("incremental_update.calls", 0) > 0

    def test_backend_validated_eagerly(self, scenario):
        with pytest.raises(ValueError, match="unknown engine backend"):
            OnlineSynchronizer(scenario.system, backend="cuda")


class TestIncrementalBehaviour:
    def test_precision_monotone_in_observations(self, scenario):
        alpha = scenario.run()
        from repro.core.estimates import estimated_delays

        online = OnlineSynchronizer(scenario.system)
        previous = float("inf")
        stream = [
            (edge, value)
            for edge, delays in sorted(
                estimated_delays(alpha.views()).items(), key=repr
            )
            for value in delays
        ]
        for edge, value in stream:
            online.observe(edge[0], edge[1], value)
            current = online.precision()
            if not math.isinf(previous):
                assert current <= previous + 1e-9
            if not math.isinf(current):
                previous = current

    def test_starts_unbounded(self, scenario):
        online = OnlineSynchronizer(scenario.system)
        assert math.isinf(online.precision())
        assert not online.result().is_fully_synchronized

    def test_caching_and_change_detection(self, scenario):
        online = OnlineSynchronizer(scenario.system)
        assert online.observe(0, 1, 2.0) is True  # new extreme
        first = online.result()
        # An interior observation changes no extreme: cache survives.
        assert online.observe(0, 1, 2.0) is False
        assert online.result() is first
        # A new extreme invalidates.
        assert online.observe(0, 1, 1.5) is True
        assert online.result() is not first

    def test_edge_stats(self, scenario):
        online = OnlineSynchronizer(scenario.system)
        online.observe(0, 1, 2.0)
        online.observe(0, 1, 1.2)
        stats = online.edge_stats(0, 1)
        assert stats.count == 2
        assert stats.min_delay == pytest.approx(1.2)
        assert stats.max_delay == pytest.approx(2.0)
        assert online.edge_stats(1, 0).count == 0

    def test_observe_timestamps(self, scenario):
        online = OnlineSynchronizer(scenario.system)
        online.observe_timestamps(0, 1, send_clock=10.0, receive_clock=12.5)
        assert online.edge_stats(0, 1).min_delay == pytest.approx(2.5)

    def test_unknown_edge_rejected(self, scenario):
        online = OnlineSynchronizer(scenario.system)
        with pytest.raises(UnknownLinkError):
            online.observe(0, 2, 1.0)  # ring-5: 0 and 2 not adjacent

    def test_reset(self, scenario):
        alpha = scenario.run()
        online = OnlineSynchronizer(scenario.system)
        online.ingest_views(alpha.views())
        assert not math.isinf(online.precision())
        online.reset()
        assert online.observation_count == 0
        assert math.isinf(online.precision())


def poison_for(online, sender=0, receiver=1):
    """A forward sample guaranteed to break edge's 2-cycle soundness.

    ``mls~(p,q) + mls~(q,p)`` is translation invariant, so a sample ten
    units below the observed forward minimum drives the de-translated
    2-cycle budget to at most ``-6`` under the [1, 3] bounds -- corrupt
    relative to any honest history, whatever the clock offsets are.
    """
    return online.edge_stats(sender, receiver).min_delay - 10.0


class TestRobustness:
    """Staleness, outlier screening and fallback (ISSUE 5 degradation)."""

    def test_outlier_rejected_without_touching_the_result(self, scenario):
        alpha = scenario.run()
        online = OnlineSynchronizer(scenario.system, reject_outliers=True)
        online.ingest_views(alpha.views())
        baseline = online.result()
        stats_before = online.edge_stats(0, 1)
        assert online.observe(0, 1, poison_for(online)) is False
        assert online.outliers_rejected == 1
        assert online.edge_stats(0, 1) == stats_before
        assert online.result() is baseline  # cache untouched by rejection

    def test_without_screening_poison_is_admitted_and_raises(self, scenario):
        alpha = scenario.run()
        online = OnlineSynchronizer(scenario.system)
        online.ingest_views(alpha.views())
        assert online.observe(0, 1, poison_for(online)) is True
        assert online.outliers_rejected == 0
        with pytest.raises(InconsistentViewsError):
            online.result()

    def test_fallback_serves_last_good_then_recovers(self, scenario):
        alpha = scenario.run()
        online = OnlineSynchronizer(scenario.system, fallback=True)
        online.ingest_views(alpha.views())
        good = online.result()
        online.observe(0, 1, poison_for(online))

        assert online.result() is good  # served, not raised
        assert online.in_fallback
        assert online.fallbacks_served == 1
        # The failure is not cached: every later query retries.
        assert online.result() is good
        assert online.fallbacks_served == 2

        # Recovery lever: discard the poisoned direction.
        assert online.drop_edge_stats(0, 1) is True
        recovered = online.result()
        assert not online.in_fallback
        # The reverse direction's samples still bound the dropped edge
        # (Lemma 6.2 cross terms), so precision stays finite.
        assert not math.isinf(recovered.precision)

    def test_fallback_with_no_last_good_still_raises(self, scenario):
        online = OnlineSynchronizer(scenario.system, fallback=True)
        online.observe(0, 1, 2.0)
        online.observe(1, 0, 2.0)
        online.observe(0, 1, -8.0)  # 2-cycle budget -8: inconsistent
        with pytest.raises(InconsistentViewsError):
            online.result()

    def test_edge_staleness_counts_observations_since_last_sample(
        self, scenario
    ):
        online = OnlineSynchronizer(scenario.system)
        for value in (2.0, 1.5, 2.5):
            online.observe(0, 1, value)
        assert online.edge_staleness(0, 1) == 0
        assert online.edge_staleness(1, 0) == 3  # never seen: maximally stale

    def test_stale_edges_covers_silent_links(self, scenario):
        online = OnlineSynchronizer(scenario.system)
        for value in (2.0, 1.5, 2.5):
            online.observe(0, 1, value)
        stale = online.stale_edges(3)
        # Every directed edge of ring-5 except the one that saw traffic.
        assert len(stale) == 9
        assert (0, 1) not in stale
        assert stale[(1, 0)] == 3
        assert online.stale_edges(4) == {}

    def test_rejected_observation_still_freshens_its_edge(self, scenario):
        """A rejected sample is evidence the link is alive -- staleness
        tracks traffic, not admission."""
        online = OnlineSynchronizer(scenario.system, reject_outliers=True)
        online.observe(0, 1, 2.0)
        online.observe(1, 0, 2.0)
        assert online.observe(0, 1, poison_for(online)) is False
        assert online.edge_staleness(0, 1) == 0
        assert online.edge_staleness(1, 0) == 1

    def test_drop_edge_stats_reports_whether_anything_dropped(self, scenario):
        online = OnlineSynchronizer(scenario.system)
        assert online.drop_edge_stats(0, 1) is False
        online.observe(0, 1, 2.0)
        assert online.drop_edge_stats(0, 1) is True
        assert online.edge_stats(0, 1).count == 0

    def test_reset_clears_robustness_state(self, scenario):
        alpha = scenario.run()
        online = OnlineSynchronizer(
            scenario.system, reject_outliers=True, fallback=True
        )
        online.ingest_views(alpha.views())
        online.result()
        online.observe(0, 1, poison_for(online))
        assert online.outliers_rejected == 1
        online.reset()
        assert online.outliers_rejected == 0
        assert online.fallbacks_served == 0
        assert not online.in_fallback
        assert online.stale_edges(1) == {}


class TestNonFiniteObservations:
    """A non-finite delay is refused before it touches any statistic."""

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"]
    )
    @pytest.mark.parametrize("reject_outliers", [False, True])
    def test_refused_and_nothing_recorded(
        self, scenario, value, reject_outliers
    ):
        alpha = scenario.run()
        online = OnlineSynchronizer(
            scenario.system, reject_outliers=reject_outliers
        )
        online.ingest_views(alpha.views())
        before = online.result()
        online.observe(1, 2, online.edge_stats(1, 2).min_delay)
        state = (
            online.observation_count,
            online.edge_stats(0, 1),
            online.edge_staleness(0, 1),
            online.outliers_rejected,
            online.last_observation_admitted,
        )
        with pytest.raises(ValueError, match="not finite"):
            online.observe(0, 1, value)
        with pytest.raises(ValueError, match="not finite"):
            online.observe_timestamps(0, 1, 5.0, 5.0 + value)
        assert state == (
            online.observation_count,
            online.edge_stats(0, 1),
            online.edge_staleness(0, 1),
            online.outliers_rejected,
            online.last_observation_admitted,
        )
        after = online.result()
        assert after is before  # the cache was never invalidated
        assert after.corrections == before.corrections
