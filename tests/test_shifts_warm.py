"""Warm-started SHIFTS is bit-identical to a cold solve.

An online refresh hands SHIFTS the previous result's critical cycle; the
numpy engine then checks that cycle with one Bellman--Ford pass under its
mean instead of running Karp.  The served ``A^max`` is always the exact
left-to-right mean of the canonical critical cycle, so a warm answer must
equal the cold one bit for bit.  The streams here are the e2e ``online``
workload's shape: a heterogeneous n=64 execution fed message by message in
delivery order, each refresh held to a fresh ``from_matrices`` without
``previous`` (which always runs cold).
"""

import numpy as np
import pytest

from repro.core.synchronizer import ClockSynchronizer
from repro.delays.bounds import BoundedDelay
from repro.delays.system import System
from repro.engine.numpy_backend import NumpyEngine, canonical_cycle, cycle_mean
from repro.extensions.online import OnlineSynchronizer
from repro.graphs.topology import random_connected, ring
from repro.workloads.scenarios import heterogeneous


def delivery_stream(alpha):
    """``(sender, receiver, send_clock, recv_clock)`` in delivery order."""
    views = alpha.views()
    sends = {}
    for view in views.values():
        sends.update(view.send_clock_times())
    receives = {p: view.receive_clock_times() for p, view in views.items()}
    records = sorted(
        alpha.message_records().values(),
        key=lambda r: (r.receive_real_time, r.message.uid),
    )
    return [
        (
            r.message.sender,
            r.message.receiver,
            sends[r.message.uid],
            receives[r.message.receiver][r.message.uid],
        )
        for r in records
    ]


def digest(result):
    """Precision, corrections and components, floats as ``float.hex``."""
    return (
        result.precision.hex(),
        {p: value.hex() for p, value in result.corrections.items()},
        [
            (c.processors, c.precision.hex(), c.critical_cycle, c.root)
            for c in result.components
        ],
    )


def warm_counts(engine):
    counters = engine.stats.counters
    return (
        counters.get("shifts.warm_hits", 0),
        counters.get("shifts.warm_fallbacks", 0),
    )


@pytest.mark.parametrize("seed", [3000, 3001, 4000])
def test_streamed_refreshes_equal_cold_solves(seed):
    scenario = heterogeneous(
        random_connected(64, 0.05, seed), seed=seed, probes=3
    )
    online = OnlineSynchronizer(scenario.system, backend="numpy")
    cold = ClockSynchronizer(scenario.system, backend="numpy")
    last, refreshes = None, 0
    for message in delivery_stream(scenario.run()):
        online.observe_timestamps(*message)
        result = online.result()
        if result is last:
            continue
        last, refreshes = result, refreshes + 1
        reference = cold.from_matrices(
            mls_matrix=result.mls_tilde.matrix,
            ms_matrix=result.ms_tilde.matrix,
        )
        assert digest(result) == digest(reference), refreshes
    hits, fallbacks = warm_counts(online.synchronizer.engine)
    assert refreshes > 100 and hits > 0
    assert warm_counts(cold.engine) == (0, 0)  # no previous, no hint


def test_served_precision_is_the_canonical_cycle_mean():
    rng = np.random.default_rng(5)
    for _ in range(50):
        matrix = rng.uniform(-5.0, 5.0, (7, 7))
        outcome = NumpyEngine().shifts(matrix)
        cycle = list(outcome.cycle_rows)
        assert cycle == canonical_cycle(cycle)
        assert outcome.a_max == cycle_mean(matrix, cycle)


def test_hint_outside_the_rows_is_ignored():
    matrix = np.random.default_rng(1).uniform(0.0, 1.0, (5, 5))
    engine = NumpyEngine()
    cold = engine.shifts(matrix, rows=[0, 1, 2])
    hinted = engine.shifts(matrix, rows=[0, 1, 2], hint=[3, 4])
    assert warm_counts(engine) == (0, 0)
    assert hinted.a_max == cold.a_max


class TestWarmStart:
    def setup_method(self):
        rng = np.random.default_rng(7)
        self.matrix = rng.uniform(0.0, 1.0, (6, 6))
        self.cold = NumpyEngine().shifts(self.matrix)

    def test_critical_hint_is_a_hit_identical_to_cold(self):
        engine = NumpyEngine()
        rotated = self.cold.cycle_rows[1:] + self.cold.cycle_rows[:1]
        warm = engine.shifts(self.matrix, hint=rotated)
        assert warm_counts(engine) == (1, 0)
        assert warm.a_max == self.cold.a_max
        assert warm.cycle_rows == self.cold.cycle_rows
        assert warm.corrections.tobytes() == self.cold.corrections.tobytes()

    def test_non_critical_hint_falls_back_to_cold(self):
        engine = NumpyEngine()
        other = next(
            [u, v] for u in range(6) for v in range(u + 1, 6)
            if (u, v) != self.cold.cycle_rows
        )
        warm = engine.shifts(self.matrix, hint=other)
        assert warm_counts(engine) == (0, 1)
        assert warm.a_max == self.cold.a_max
        assert warm.cycle_rows == self.cold.cycle_rows
        assert warm.corrections.tobytes() == self.cold.corrections.tobytes()

    def test_python_reference_ignores_the_hint(self):
        sync = ClockSynchronizer(
            System.uniform(ring(6), BoundedDelay(1.0, 3.0)), backend="python"
        )
        outcome = sync.engine.shifts(
            self.matrix, hint=list(self.cold.cycle_rows)
        )
        assert "shifts.warm_hits" not in sync.engine.stats.counters
        assert "shifts.warm_fallbacks" not in sync.engine.stats.counters
        assert outcome.a_max == pytest.approx(self.cold.a_max, abs=1e-12)


def test_merge_passes_a_previous_cycle_as_hint():
    """Two components merge: the new one is hinted with an old cycle."""
    system = System.uniform(ring(6), BoundedDelay(1.0, 3.0))
    sync = ClockSynchronizer(system)
    rng = np.random.default_rng(3)
    full = rng.uniform(0.0, 1.0, (6, 6))
    np.fill_diagonal(full, 0.0)
    split = np.full((6, 6), np.inf)
    for block in ([0, 1, 2], [3, 4, 5]):
        split[np.ix_(block, block)] = full[np.ix_(block, block)]
    first = sync.from_matrices(mls_matrix=split, ms_matrix=split)
    assert len(first.components) == 2
    before = warm_counts(sync.engine)
    merged = sync.from_matrices(
        mls_matrix=full, ms_matrix=full, previous=first
    )
    after = warm_counts(sync.engine)
    assert sum(after) == sum(before) + 1  # exactly one hinted call
    reference = ClockSynchronizer(system).from_matrices(
        mls_matrix=full, ms_matrix=full
    )
    assert digest(merged) == digest(reference)
