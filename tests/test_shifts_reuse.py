"""Component reuse in ``ClockSynchronizer.from_matrices`` is exact.

An online refresh passes its last good result as ``previous``; a
component whose processors, root and ``ms~`` submatrix are unchanged is
copied instead of re-solved (Theorem 4.6: SHIFTS on a component reads
only that submatrix).  So is one whose submatrix only decreased in
entries that were slack under the previous answer, when the engine
proves that answer is still what SHIFTS serves (the copy rule, DESIGN.md
section 6).  Every result here is held to a from-scratch
``from_matrices`` on the same matrices: corrections, precision, and each
component's precision, root and critical cycle must be ``==``.  Re-solved
components are warm-started from the previous critical cycle, so the
streams also prove warm answers equal cold ones.  Each condition of the
copy rule has a small instance below on which dropping it would copy a
wrong answer.
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
from repro.engine.numpy_backend import (
    NumpyEngine,
    bellman_ford_matrix,
    realizing_tree,
    shift_weights,
)
from repro.extensions.online import OnlineSynchronizer
from repro.graphs.topology import complete, random_connected, ring
from repro.obs.export import prometheus_text
from repro.obs.recorder import recording
from repro.obs.timeline import replay_online
from repro.workloads.scenarios import (
    bounded_uniform,
    heterogeneous,
    round_trip_bias,
)

INF = float("inf")
REUSED = "pipeline.components_reused"
SLACK = "pipeline.components_reused_slack"
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


def slack_copies(recorder):
    return recorder.registry.counters().get(SLACK, 0.0)


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
        calls = online.synchronizer.engine.stats.counters["shifts.calls"]
        with recording() as recorder:
            after = online.result()
        assert after is not before
        # A loosening: the component is re-solved, never copied.
        assert online.synchronizer.engine.stats.counters["shifts.calls"] > (
            calls
        )
        assert reused(recorder) == slack_copies(recorder) == 0
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


SCENARIOS = {
    "heterogeneous": lambda topology, seed: heterogeneous(
        topology, seed=seed, probes=2
    ),
    "bounded_uniform": lambda topology, seed: bounded_uniform(
        topology, lb=1.0, ub=3.0, probes=2, seed=seed
    ),
    "round_trip_bias": lambda topology, seed: round_trip_bias(
        topology, bias=2.0, probes=2, seed=seed
    ),
}


class TestSlackCopyStreams:
    @pytest.mark.parametrize("kind", sorted(SCENARIOS))
    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_every_refresh_equals_a_fresh_solve(self, kind, n):
        copies = 0
        for seed in (21, 22, 23):
            scenario = SCENARIOS[kind](random_connected(n, 0.08, seed), seed)
            check = RefreshCheck(ClockSynchronizer(scenario.system))
            with recording() as recorder:
                recorder.add_observer(check)
                replay_online(scenario.system, scenario.run())
                assert check.refreshes
                copies += slack_copies(recorder)
                if slack_copies(recorder):
                    exposition = prometheus_text(recorder.registry)
                    assert "pipeline_components_reused " in exposition
                    assert "pipeline_components_reused_slack " in exposition
        assert copies > 0  # the slack-only copy fires


def two_cycles(**entries):
    """``ms~`` over 5 processors (root 1) with two tied critical 2-cycles.

    Both ``(1, 2)`` and ``(3, 4)`` have mean 1, and ``(1, 2)`` is served:
    ``tight_cycle`` starts its walk at row 1, because row 0's only near
    tight out-edge, ``0 -> 3`` (slack 0.5), is outside the tolerance
    ``1e-9 * 1e8`` that the large slack entry ``(4, 2)`` sets.  Once that
    edge counts as tight, row 0 survives the pruning and the walk from it
    reaches ``(3, 4)`` instead.  ``entries`` overrides ``(row, col)``
    cells, e.g. ``two_cycles(**{"4,2": -1e9})``.
    """
    ms = np.full((5, 5), -5.0)
    np.fill_diagonal(ms, 0.0)
    ms[1, 2] = ms[2, 1] = ms[3, 4] = ms[4, 3] = 1.0
    ms[1, 3] = ms[1, 0] = 0.0
    ms[0, 3] = 0.5
    ms[4, 2] = -1e8
    for cell, value in entries.items():
        ms[tuple(int(i) for i in cell.split(","))] = value
    return ms


@pytest.fixture
def rooted():
    return ClockSynchronizer(
        System.uniform(complete(5), BoundedDelay(0.0, 1.0)), root=1
    )


def shifts_calls(sync):
    return sync.engine.stats.counters.get("shifts.calls", 0)


class TestCopyRule:
    """Each case breaks one condition; the rule must re-solve."""

    def test_slack_decrease_is_copied(self, rooted):
        first = solve(rooted, two_cycles())
        assert first.components[0].critical_cycle == (1, 2)
        calls = shifts_calls(rooted)
        with recording() as recorder:
            second = solve(
                rooted, two_cycles(**{"0,2": -6.0, "3,1": -7.0}),
                previous=first,
            )
        assert (reused(recorder), slack_copies(recorder)) == (1, 1)
        assert shifts_calls(rooted) == calls
        assert second.components[0] is first.components[0]
        assert_exact(rooted, second)

    @pytest.mark.parametrize("change", [
        {"4,2": -1e9},  # (1): the tolerance scale grows tenfold
        {"2,1": 0.75},  # (2): a tight entry of the served cycle decreased
        {"0,3": 1.0},   # an increase, which makes 0 -> 3 tight
    ], ids=["scale", "tight", "increase"])
    def test_broken_condition_is_resolved(self, rooted, change):
        first = solve(rooted, two_cycles())
        calls = shifts_calls(rooted)
        with recording() as recorder:
            second = solve(rooted, two_cycles(**change), previous=first)
        assert slack_copies(recorder) == reused(recorder) == 0
        assert shifts_calls(rooted) == calls + 1
        # A copy would have served (1, 2).
        assert second.components[0].critical_cycle == (3, 4)
        assert_exact(rooted, second)

    def test_unsettled_solve_is_resolved(self, rooted, monkeypatch):
        class Unsettled(NumpyEngine):
            def _shifts(self, sub, root_local, hint=None):
                outcome = super()._shifts(sub, root_local, hint)
                return dataclasses.replace(outcome, settled=False)

        monkeypatch.setattr(
            "repro.core.synchronizer.create_engine", lambda backend: Unsettled()
        )
        sync = ClockSynchronizer(rooted.system, root=1)
        first = solve(sync, two_cycles())
        calls = shifts_calls(sync)
        with recording() as recorder:
            second = solve(sync, two_cycles(**{"0,2": -6.0}), previous=first)
        assert slack_copies(recorder) == reused(recorder) == 0
        assert shifts_calls(sync) == calls + 1
        assert_exact(rooted, second)

    def test_python_backend_never_copies_slack(self):
        sync = ClockSynchronizer(
            System.uniform(complete(5), BoundedDelay(0.0, 1.0)),
            root=1, backend="python",
        )
        first = solve(sync, two_cycles())
        with recording() as recorder:
            again = solve(sync, two_cycles(), previous=first)
            second = solve(sync, two_cycles(**{"0,2": -6.0}), previous=again)
        assert reused(recorder) == 1  # only the identical block
        assert slack_copies(recorder) == 0
        assert not first._solved[0].shifts.settled
        assert_exact(sync, second)


class TestKeeps:
    """``SyncEngine.keeps`` claims a solve only when a warm re-solve
    would serve it bit for bit."""

    def setup_method(self):
        self.engine = NumpyEngine()
        self.old = two_cycles()
        self.new = two_cycles(**{"0,2": -6.0})
        self.solve = self.engine.shifts(self.old, root_row=1)
        self.cells = (np.array([0]), np.array([2]))
        self.before = np.array([-5.0])

    def keeps(self, solve):
        return self.engine.keeps(self.new, 1, solve, self.cells, self.before)

    def test_settled_solve_is_kept_and_is_the_warm_answer(self):
        assert self.solve.settled
        assert self.keeps(self.solve)
        warm = self.engine.shifts(
            self.new, root_row=1, hint=list(self.solve.cycle_rows)
        )
        assert warm.corrections.tobytes() == self.solve.corrections.tobytes()
        assert (warm.a_max, warm.cycle_rows) == (
            self.solve.a_max, self.solve.cycle_rows
        )

    @pytest.mark.parametrize("labels", [
        [1.0, 0.0, 0.0, 0.5, 0.5],  # (3, 4) a zero-weight tie cycle
        [1.0, 0.0, 0.0, 1.0, 1.0 + 2.0 ** -52],  # nudged
    ], ids=["tie-cycle", "nudged"])
    def test_labels_bellman_ford_does_not_return_are_refused(self, labels):
        forged = dataclasses.replace(self.solve, corrections=np.array(labels))
        weights = shift_weights(self.new, self.solve.a_max)
        assert not np.array_equal(bellman_ford_matrix(weights, 1), labels)
        assert not self.keeps(forged)

    def test_unsettled_solve_is_refused(self):
        assert not self.keeps(dataclasses.replace(self.solve, settled=False))

    def test_python_reference_never_keeps(self):
        python = ClockSynchronizer(
            System.uniform(complete(5), BoundedDelay(0.0, 1.0)),
            backend="python",
        ).engine
        solve = python.shifts(self.old, root_row=1)
        assert not solve.settled
        assert not python.keeps(
            self.new, 1, dataclasses.replace(solve, settled=True),
            self.cells, self.before,
        )


class TestRealizedFixpoint:
    @pytest.mark.parametrize("seed", range(6))
    def test_accepts_only_what_bellman_ford_returns(self, seed):
        rng = np.random.default_rng(seed)
        accepted = 0
        for _ in range(40):
            n = int(rng.integers(2, 12))
            ms = rng.uniform(-5.0, 5.0, (n, n))
            a_max = NumpyEngine().shifts(ms).a_max
            weights = shift_weights(ms, a_max + rng.choice([0.0, 0.5]))
            root = int(rng.integers(n))
            dist = bellman_ford_matrix(weights, root)
            nudged = dist.copy()
            nudged[(root + 1) % n] = np.nextafter(nudged[(root + 1) % n], 0)
            candidates = [dist, nudged, rng.uniform(-1.0, 1.0, n)]
            for labels in candidates:
                if realizing_tree(weights, labels, root) is not None:
                    accepted += 1
                    assert dist.tobytes() == labels.tobytes()
            # Strictly positive, distinct weights: no ties, so Bellman--
            # Ford's own answer is a realized fixpoint.
            positive = shift_weights(-rng.uniform(0.0, 1.0, (n, n)), 0.0)
            assert realizing_tree(
                positive, bellman_ford_matrix(positive, root), root
            ) is not None
        assert accepted

    def test_zero_weight_tie_cycle_is_refused(self):
        weights = np.array([
            [INF, 5.0, 5.0],
            [10.0, INF, 0.0],
            [10.0, 0.0, INF],
        ])
        labels = np.array([0.0, 3.0, 3.0])  # consistent, but no walk
        reach = (labels[:, None] + weights).min(axis=0)
        assert reach[1:].tolist() == labels[1:].tolist()
        assert bellman_ford_matrix(weights, 0).tolist() == [0.0, 5.0, 5.0]
        assert realizing_tree(weights, labels, 0) is None

    def test_labels_after_non_converging_rounds_are_refused(self):
        # The cycle 1 -> 2 -> 1 weighs -2**-52: Bellman--Ford never
        # settles, stops after n - 1 rounds and returns (within tolerance).
        weights = np.full((4, 4), INF)
        weights[0, 1] = weights[1, 2] = weights[2, 3] = 1.0
        weights[2, 1] = -(1.0 + 2.0 ** -52)
        dist = bellman_ford_matrix(weights, 0)
        assert dist is not None
        assert ((dist[:, None] + weights).min(axis=0) < dist).any()
        assert realizing_tree(weights, dist, 0) is None

    def test_root_that_relaxes_is_refused(self):
        weights = np.array([[INF, 1.0], [-2.0, INF]])
        assert realizing_tree(weights, np.array([0.0, 1.0]), 0) is None


def tied_parents():
    """``ms~`` over 4 processors (root 3) whose settled corrections
    ``(1, 1, 1.5, 0)`` are what Bellman--Ford returns, although their
    argmin parents cycle: rows 0 and 1 reach each other over the
    critical 2-cycle at weight 0, and row 3 reaches both at weight 1."""
    return np.array([
        [0.0, 2.0, 1.0, 2.0],
        [2.0, 0.0, 1.0, 2.0],
        [1.0, 1.0, 0.0, 1.0],
        [1.0, 1.0, 0.5, 0.0],
    ])


class TestBellmanFordFallback:
    """Labels the argmin-parent test cannot prove are compared with
    Bellman--Ford itself before the block is re-solved."""

    def setup_method(self):
        self.sync = ClockSynchronizer(
            System.uniform(complete(4), BoundedDelay(0.0, 1.0)), root=3
        )

    def test_tied_parents_are_copied_as_the_warm_answer(self):
        first = solve(self.sync, tied_parents())
        solved = first._solved[0].shifts
        weights = shift_weights(tied_parents(), solved.a_max)
        assert solved.settled
        assert realizing_tree(weights, solved.corrections, 3) is None
        assert bellman_ford_matrix(weights, 3).tobytes() == (
            solved.corrections.tobytes()
        )
        changed = tied_parents()
        changed[2, 0] = 0.5  # slack: 1.5 + (2 - 1) - 1 = 1.5
        calls = shifts_calls(self.sync)
        with recording() as recorder:
            second = solve(self.sync, changed, previous=first)
        assert (reused(recorder), slack_copies(recorder)) == (1, 1)
        assert shifts_calls(self.sync) == calls
        warm = self.sync.engine.shifts(
            changed, root_row=3, hint=list(solved.cycle_rows)
        )
        assert [float(x).hex() for x in second.corrections.values()] == [
            float(x).hex() for x in warm.corrections
        ]
        assert second.precision == warm.a_max
        assert_exact(self.sync, second)

    def test_unrealized_tie_cycle_is_resolved(self, rooted):
        # (3, 4) is a zero-weight tie cycle: these labels are a fixpoint
        # that no walk from the root realizes (see TestKeeps).
        first = solve(rooted, two_cycles())
        labels = np.array([1.0, 0.0, 0.0, 0.5, 0.5])
        record = first._solved[0]
        forged = dataclasses.replace(
            first, corrections=dict(zip(first.corrections, labels.tolist()))
        )
        object.__setattr__(forged, "_solved", (record._replace(
            shifts=dataclasses.replace(record.shifts, corrections=labels),
            proof=None,
        ),))
        calls = shifts_calls(rooted)
        with recording() as recorder:
            second = solve(
                rooted, two_cycles(**{"0,2": -6.0}), previous=forged
            )
        assert slack_copies(recorder) == reused(recorder) == 0
        assert shifts_calls(rooted) == calls + 1
        assert_exact(rooted, second)


class TestKeepProof:
    """With what the last check proved, the next one reads only the
    changed entries; it re-reads the block when a maximal entry moved."""

    def setup_method(self):
        self.engine = NumpyEngine()
        self.old = two_cycles()
        self.solve = self.engine.shifts(self.old, root_row=1)
        self.cells = (np.array([0]), np.array([2]))
        self.before = np.array([-5.0])
        self.new = two_cycles(**{"0,2": -6.0})
        self.proof = self.engine.keeps(
            self.new, 1, self.solve, self.cells, self.before
        )

    def keeps(self, sub, proof):
        return self.engine.keeps(
            sub, 1, self.solve, self.cells, self.before, proof
        )

    def test_a_kept_solve_carries_its_scale_and_tree(self):
        assert self.proof.scale == 1e8
        assert self.proof.tree.tolist() == realizing_tree(
            shift_weights(self.new, self.solve.a_max),
            self.solve.corrections, 1,
        ).tolist()
        assert self.proof.tree[1] == 1

    def test_only_the_changed_entries_are_read(self):
        # An unchanged entry the check must not read: with the proof it
        # is kept, the full check sees the scale grow and refuses.
        poisoned = self.new.copy()
        poisoned[4, 0] = -1e12
        assert self.keeps(poisoned, self.proof) == self.proof
        assert self.keeps(poisoned, None) is None

    def test_entry_beyond_the_scale_is_refused(self):
        smaller = self.proof._replace(scale=5.5)  # |-6| grows the scale
        assert self.keeps(self.new, smaller) is None

    def test_moved_maximal_entry_rereads_the_block(self):
        # A recorded scale that the changed entry attained: only the
        # full max can tell whether it still holds, and here it is 1e8.
        attained = self.proof._replace(scale=5.0)
        assert self.keeps(self.new, attained) == self.proof

    def test_changed_tree_edge_is_refused(self):
        tree = self.proof.tree.copy()
        tree[2] = 0  # pretend 0 -> 2 carried a label
        assert self.keeps(self.new, self.proof._replace(tree=tree)) is None

    def test_streams_copy_with_recorded_trees(self):
        scenario = heterogeneous(random_connected(32, 0.08, 21), seed=21)
        online = OnlineSynchronizer(scenario.system)
        check = RefreshCheck(online.synchronizer)
        proved = 0
        with recording() as recorder:
            recorder.add_observer(check)
            for message in messages(scenario.run()):
                if online.observe(*message):
                    proved += any(
                        r.proof is not None and r.proof.tree is not None
                        for r in online.result()._solved
                    )
        assert check.refreshes and proved
