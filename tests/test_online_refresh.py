"""Every online refresh equals the long way round, bit for bit.

A refresh re-evaluates only the links an observation touched, hands
``from_matrices`` the ``ms~`` cells the closure repair lowered, reuses
the previous ``mls~`` layout and checks the copy rule against what the
last check proved.  :func:`oracles.reference_refresh` does none of
that: every ``mls~`` term, whole-matrix compares, every copy-rule check
in full.  Streamed through heterogeneous executions, with statistics
this test accumulates itself, every served result must have the
reference's digest: corrections, precision, each component's precision,
root and critical cycle, and both matrices, all as exact bits.
"""

import hashlib
import random

import numpy as np
import pytest

from oracles import reference_refresh
from repro.core.errors import InconsistentViewsError
from repro.core.estimates import estimated_delays
from repro.core.synchronizer import ClockSynchronizer
from repro.extensions.online import OnlineSynchronizer
from repro.graphs.topology import random_connected
from repro.workloads.scenarios import heterogeneous

INF = float("inf")


def digest(result):
    """Every served float of ``result``, as exact bits."""
    h = hashlib.sha256()
    for p, x in result.corrections.items():
        h.update(f"{p!r}={float(x).hex()};".encode())
    h.update(float(result.precision).hex().encode())
    for c in result.components:
        h.update(repr((
            c.processors, float(c.precision).hex(), c.root, c.critical_cycle,
        )).encode())
    h.update(result.mls_tilde.matrix.tobytes())
    h.update(result.ms_tilde.matrix.tobytes())
    return h.hexdigest()


def stream_of(n, seed):
    scenario = heterogeneous(
        random_connected(n, 0.05, seed), seed=seed, probes=2
    )
    messages = [
        (p, q, delay)
        for (p, q), delays in estimated_delays(scenario.run().views()).items()
        for delay in delays
    ]
    random.Random(seed).shuffle(messages)
    return scenario.system, messages


class Mirror:
    """The statistics and last result a reference refresh works from,
    kept by this test from what it fed the online synchronizer."""

    def __init__(self, online, backend="numpy"):
        self.online = online
        system = online.synchronizer.system
        self.sync = ClockSynchronizer(system, backend=backend)
        self.numbers = system.link_terms.numbers
        self.reset()

    def reset(self):
        edges = len(self.numbers)
        self.dmin, self.dmax = np.full(edges, INF), np.full(edges, -INF)
        self.last = None

    def observe(self, p, q, delay):
        """Feed one observation to both; whether it changed a statistic."""
        changed = self.online.observe(p, q, delay)
        if self.online.last_observation_admitted:
            e = self.numbers[(p, q)]
            self.dmin[e] = min(self.dmin[e], delay)
            self.dmax[e] = max(self.dmax[e], delay)
        return changed

    def drop(self, p, q):
        assert self.online.drop_edge_stats(p, q)
        e = self.numbers[(p, q)]
        self.dmin[e], self.dmax[e] = INF, -INF

    def check(self):
        """The online result, held to the reference refresh."""
        served = self.online.result()
        expected = reference_refresh(self.sync, self.dmin, self.dmax, self.last)
        assert digest(served) == digest(expected)
        self.last = served
        return served


CASES = [(16, 1), (24, 2), (32, 3), (48, 4), (64, 5)]


@pytest.mark.parametrize("n, seed", CASES)
def test_every_refresh_equals_the_reference(n, seed):
    system, messages = stream_of(n, seed)
    mirror = Mirror(OnlineSynchronizer(system))
    third = len(messages) // 3
    refreshes = 0
    for k, message in enumerate(messages):
        if k == third:
            # A loosening: the next refresh takes the full path.
            mirror.drop(*messages[0][:2])
        if k == 2 * third:
            mirror.online.reset()
            mirror.reset()
        if mirror.observe(*message) or k in (third, 2 * third):
            mirror.check()
            refreshes += 1
    counters = mirror.online.synchronizer.engine.stats.counters
    assert refreshes > len(messages) // 2
    assert counters.get("incremental_update.calls", 0) > 0


@pytest.mark.parametrize("n, seed", CASES[:2])
def test_python_backend_refreshes_equal_the_reference(n, seed):
    system, messages = stream_of(n, seed)
    mirror = Mirror(OnlineSynchronizer(system, backend="python"), "python")
    for message in messages:
        if mirror.observe(*message):
            mirror.check()


def test_rejected_outliers_change_nothing():
    system, messages = stream_of(32, 6)
    mirror = Mirror(OnlineSynchronizer(system, reject_outliers=True))
    rejected = 0
    for k, (p, q, delay) in enumerate(messages):
        if k and k % 7 == 0 and mirror.online.edge_stats(q, p).count:
            # Far below anything honest: the link's 2-cycle goes negative.
            changed = mirror.observe(p, q, delay - 1e3)
            rejected += not mirror.online.last_observation_admitted
            assert not changed or mirror.online.last_observation_admitted
        if mirror.observe(p, q, delay):
            mirror.check()
    assert rejected and mirror.online.outliers_rejected == rejected


def test_failed_refresh_keeps_its_links_dirty(monkeypatch):
    system, messages = stream_of(32, 7)
    online = OnlineSynchronizer(system, fallback=True)
    mirror = Mirror(online)
    half = len(messages) // 2
    for message in messages[:half]:
        if mirror.observe(*message):
            mirror.check()
    good = mirror.last
    sync = online.synchronizer

    def fail(*args, **kwargs):
        raise InconsistentViewsError("injected")

    failed = 0
    for message in messages[half:]:
        changed = mirror.observe(*message)
        if not changed:
            continue
        if not failed:
            # This refresh raises: the last good result is served, and
            # the links it saw must still count as changed next time.
            monkeypatch.setattr(sync, "from_matrices", fail)
            assert online.result() is good and online.in_fallback
            monkeypatch.undo()
            failed += 1
            continue
        mirror.check()
        assert not online.in_fallback
    assert failed


def test_poisoned_edge_falls_back_then_recovers():
    system, messages = stream_of(24, 8)
    online = OnlineSynchronizer(system, fallback=True)
    mirror = Mirror(online)
    for message in messages:
        if mirror.observe(*message):
            mirror.check()
    good = mirror.last
    p, q, _ = messages[0]
    # Timestamps corrupted by far more than any delay bound allows.
    mirror.observe(p, q, mirror.online.edge_stats(p, q).min_delay - 1e3)
    with pytest.raises(InconsistentViewsError):
        reference_refresh(mirror.sync, mirror.dmin, mirror.dmax, good)
    assert online.result() is good and online.in_fallback
    mirror.drop(p, q)
    mirror.check()
    assert not online.in_fallback
