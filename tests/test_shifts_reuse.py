"""Component reuse in ``ClockSynchronizer.from_matrices`` is exact.

An online refresh passes its last good result as ``previous``; a
component whose processors, root and ``ms~`` submatrix are unchanged is
copied instead of re-solved (Theorem 4.6: SHIFTS on a component reads
only that submatrix).  Every result here is held to a from-scratch
``from_matrices`` on the same matrices: corrections, precision, and each
component's precision, root and critical cycle must be ``==``.  Re-solved
components are warm-started from the previous critical cycle, so the
streams also prove warm answers equal cold ones.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.core.estimates import estimated_delays
from repro.core.optimality import verify_certificate
from repro.core.synchronizer import ClockSynchronizer
from repro.delays.bounds import BoundedDelay
from repro.delays.system import System
from repro.extensions.online import OnlineSynchronizer
from repro.graphs.topology import random_connected, ring
from repro.obs.export import prometheus_text
from repro.obs.recorder import recording
from repro.obs.timeline import replay_online
from repro.workloads.scenarios import bounded_uniform, heterogeneous

INF = float("inf")
REUSED = "pipeline.components_reused"
WARM_HITS = "engine.shifts.warm_hits"


def fresh(sync, result):
    """``from_matrices`` on ``result``'s own matrices, without ``previous``."""
    return sync.from_matrices(
        mls_matrix=result.mls_tilde.matrix, ms_matrix=result.ms_tilde.matrix
    )


def assert_exact(sync, result):
    reference = fresh(sync, result)
    assert result.corrections == reference.corrections
    assert result.precision == reference.precision
    assert result.components == reference.components
    verify_certificate(result)


def messages(alpha):
    """``(sender, receiver, estimated delay)`` per delivered message."""
    return [
        (p, q, delay)
        for (p, q), delays in estimated_delays(alpha.views()).items()
        for delay in delays
    ]


class RefreshCheck:
    """Observer holding every online refresh to a fresh solve."""

    def __init__(self, sync):
        self.sync = sync
        self.refreshes = 0

    def on_telemetry(self, kind, data):
        if kind == "online.result":
            assert_exact(self.sync, data["result"])
            self.refreshes += 1


def reused(recorder):
    return recorder.registry.counters().get(REUSED, 0.0)


def warm_hits(recorder):
    return recorder.registry.counters().get(WARM_HITS, 0.0)


@pytest.fixture
def ring_scenario():
    return bounded_uniform(ring(6), lb=1.0, ub=3.0, probes=2, seed=11)


class TestStreams:
    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_refresh_equals_a_fresh_solve(self, n, seed):
        scenario = heterogeneous(
            random_connected(n, 0.05, seed), seed=seed, probes=1
        )
        check = RefreshCheck(ClockSynchronizer(scenario.system))
        with recording() as recorder:
            recorder.add_observer(check)
            replay_online(scenario.system, scenario.run())
            assert check.refreshes and reused(recorder) > 0
            assert warm_hits(recorder) > 0
            exposition = prometheus_text(recorder.registry)
            assert "pipeline_components_reused" in exposition
            assert "engine_shifts_warm_hits" in exposition
            assert "engine_shifts_warm_fallbacks" in exposition


def two_blocks(seed=0):
    """A 6-processor synchronizer and an ``ms~`` with two 3-blocks."""
    system = System.uniform(ring(6), BoundedDelay(1.0, 3.0))
    sync = ClockSynchronizer(system)
    rng = np.random.default_rng(seed)
    ms = np.full((6, 6), INF)
    for block in ([0, 1, 2], [3, 4, 5]):
        ms[np.ix_(block, block)] = rng.uniform(0.0, 1.0, (3, 3))
    np.fill_diagonal(ms, 0.0)
    return sync, ms


def solve(sync, ms, previous=None):
    return sync.from_matrices(mls_matrix=ms, ms_matrix=ms, previous=previous)


class TestInvalidation:
    def test_unchanged_component_is_copied_changed_one_resolved(self):
        sync, ms = two_blocks()
        first = solve(sync, ms)
        changed = ms.copy()
        changed[4, 5] += 10.0  # the 2-cycle 4 -> 5 -> 4 becomes critical
        with recording() as recorder:
            second = solve(sync, changed, previous=first)
        assert reused(recorder) == 1
        assert second.components[0] is first.components[0]
        assert second.components[1].precision != first.components[1].precision
        assert_exact(sync, second)

    def test_identical_matrices_reuse_every_component(self):
        sync, ms = two_blocks()
        first = solve(sync, ms)
        with recording() as recorder:
            second = solve(sync, ms.copy(), previous=first)
        assert reused(recorder) == 2
        assert second.corrections == first.corrections
        assert second.components == first.components

    def test_moved_root_is_resolved(self):
        sync, ms = two_blocks()
        first = solve(sync, ms)
        moved = dataclasses.replace(first, components=tuple(
            dataclasses.replace(c, root=c.processors[-1])
            for c in first.components
        ))
        with recording() as recorder:
            second = solve(sync, ms, previous=moved)
        assert reused(recorder) == 0
        assert [c.root for c in second.components] == [0, 3]
        assert_exact(sync, second)

    @pytest.mark.parametrize(
        "options", [{"root": 2}, {"backend": "python"}], ids=["root", "python"]
    )
    def test_previous_from_another_synchronizer_is_ignored(self, options):
        sync, ms = two_blocks()
        other = ClockSynchronizer(sync.system, **options)
        theirs = other.from_matrices(mls_matrix=ms, ms_matrix=ms)
        # Another synchronizer's result is built on its own index; that,
        # not a difference in components, is what marks it foreign (the
        # python backend may find the very same components).
        assert theirs.ms_tilde.index is not sync.index
        with recording() as recorder:
            ours = solve(sync, ms, previous=theirs)
        assert reused(recorder) == 0
        assert_exact(sync, ours)

    def test_singletons_need_no_engine_call(self):
        sync, ms = two_blocks()
        ms[np.ix_([0, 1, 2], [0, 1, 2])] = INF
        np.fill_diagonal(ms, 0.0)
        before = sync.engine.stats.counters.get("shifts.calls", 0)
        result = solve(sync, ms)
        assert sync.engine.stats.counters["shifts.calls"] == before + 1
        assert [c.precision for c in result.components[:3]] == [0.0] * 3
        assert [result.corrections[p] for p in (0, 1, 2)] == [0.0] * 3
        assert result.degraded.isolated_processors == (0, 1, 2)

    def test_reset_forgets_the_previous_result(self, ring_scenario):
        online = OnlineSynchronizer(ring_scenario.system)
        stream = messages(ring_scenario.run())
        for message in stream:
            online.observe(*message)
        online.result()
        online.reset()
        with recording() as recorder:
            online.observe(*stream[0])
            assert_exact(online.synchronizer, online.result())
            assert reused(recorder) == 0  # nothing survives the reset
            for message in stream[1:]:
                if online.observe(*message):
                    assert_exact(online.synchronizer, online.result())

    def test_drop_edge_stats_then_refresh(self, ring_scenario):
        online = OnlineSynchronizer(ring_scenario.system)
        for message in messages(ring_scenario.run()):
            online.observe(*message)
        before = online.result()
        assert online.drop_edge_stats(0, 1)
        after = online.result()
        assert after is not before
        assert_exact(online.synchronizer, after)

    def test_poison_fallback_recovery(self, ring_scenario):
        online = OnlineSynchronizer(ring_scenario.system, fallback=True)
        for message in messages(ring_scenario.run()):
            online.observe(*message)
        good = online.result()
        online.observe(0, 1, online.edge_stats(0, 1).min_delay - 10.0)
        assert online.result() is good
        assert online.in_fallback
        online.drop_edge_stats(0, 1)
        recovered = online.result()
        assert not online.in_fallback
        assert not math.isinf(recovered.precision)
        assert_exact(online.synchronizer, recovered)
