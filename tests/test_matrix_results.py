"""Matrix-native results: ``ms~`` as a read-only view, array certificate,
and dirty-link ``mls~`` in the online synchronizer.

Every check here is bit-exact (``float.hex``/raw bytes), never approximate:
the array paths must reproduce the scalar ones exactly.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._types import INF
from repro.core.estimates import estimated_delays
from repro.core.global_estimates import InconsistentViewsError
from repro.core.optimality import CertificateError, verify_certificate
from repro.core.precision import rho_bar
from repro.core.synchronizer import ClockSynchronizer
from repro.delays.base import DirectionStats
from repro.engine.index import PairView, ProcessorIndex
from repro.extensions.online import OnlineSynchronizer
from repro.graphs.topology import random_connected, ring
from repro.obs.monitor import ClosureStructureMonitor, OptimalityMonitor
from repro.workloads.scenarios import bounded_uniform, heterogeneous


def bits(mapping):
    """Key order plus exact float bits of a mapping's items."""
    return [(key, float(value).hex()) for key, value in mapping.items()]


@pytest.fixture(scope="module")
def hetero32():
    scenario = heterogeneous(random_connected(32, 0.1, 5), seed=5)
    alpha = scenario.run()
    return scenario.system, alpha


@pytest.fixture(scope="module")
def synced(hetero32):
    system, alpha = hetero32
    sync = ClockSynchronizer(system)
    return sync, sync.from_views(alpha.views())


def stats_of(online):
    """The online synchronizer's per-edge statistics, as a plain dict."""
    return {
        edge: online.edge_stats(*edge)
        for edge in online.synchronizer.system.directed_edges()
        if online.edge_stats(*edge) != DirectionStats()
    }


def assert_cache_exact(online):
    """The cached ``mls~`` dict and matrix equal a full recompute."""
    system = online.synchronizer.system
    index = online.synchronizer.index
    expected = system.mls_from_stats(stats_of(online))
    assert bits(online.result().mls_tilde) == bits(expected)
    assert bits(online._last_mls) == bits(expected)
    assert (
        online._last_mls_matrix.tobytes() == index.matrix(expected).tobytes()
    )


class TestPairViewContract:
    def test_items_equal_materialised_pairs(self, synced):
        sync, result = synced
        ms_matrix = sync.engine.global_estimates(
            sync.index.matrix(result.mls_tilde)
        )
        materialised = sync.index.pairs(ms_matrix)
        assert list(result.ms_tilde) == list(materialised)
        assert bits(result.ms_tilde) == bits(materialised)
        assert bits(dict(result.ms_tilde)) == bits(materialised)
        assert len(result.ms_tilde) == len(materialised) == 32 * 32

    def test_read_only(self, synced):
        _, result = synced
        with pytest.raises(TypeError):
            result.ms_tilde[(0, 1)] = 0.0
        assert result.ms_tilde.matrix.flags.writeable is False
        with pytest.raises(ValueError):
            result.ms_tilde.matrix[0, 1] = 0.0

    def test_unknown_pairs_raise_key_error(self, synced):
        _, result = synced
        for key in [(0, "nobody"), ("nobody", 0), 7, (0, 1, 2), ([0], 1)]:
            with pytest.raises(KeyError):
                result.ms_tilde[key]
            assert key not in result.ms_tilde
        assert result.ms_tilde.get((0, "nobody"), INF) == INF

    def test_view_copies_its_matrix(self):
        index = ProcessorIndex(["a", "b"])
        matrix = np.array([[0.0, 1.0], [2.0, 0.0]])
        view = PairView(matrix, index)
        matrix[0, 1] = 99.0
        assert view[("a", "b")] == 1.0
        with pytest.raises(ValueError):
            PairView(np.zeros((3, 3)), index)

    def test_online_result_is_stable_across_observations(self, hetero32):
        system, alpha = hetero32
        views = alpha.views()
        online = OnlineSynchronizer(system)
        messages = [
            (edge, value)
            for edge, values in estimated_delays(views).items()
            for value in values
        ]
        half = len(messages) // 2
        for (p, q), value in messages[:half]:
            online.observe(p, q, value)
        held = online.result()
        snapshot = (bits(held.ms_tilde), bits(held.mls_tilde))
        for (p, q), value in messages[half:]:
            online.observe(p, q, value)
            online.result()
        assert (bits(held.ms_tilde), bits(held.mls_tilde)) == snapshot


class TestDirtyLinkMlsExactness:
    def test_every_observation_matches_full_recompute(self, hetero32):
        system, alpha = hetero32
        online = OnlineSynchronizer(system)
        for (p, q), values in estimated_delays(alpha.views()).items():
            for value in values:
                online.observe(p, q, value)
                assert_cache_exact(online)

    def test_drop_and_reset_take_the_full_path(self, hetero32):
        system, alpha = hetero32
        online = OnlineSynchronizer(system)
        online.ingest_views(alpha.views())
        assert_cache_exact(online)
        edge, before = next(iter(stats_of(online).items()))
        assert online.drop_edge_stats(*edge)
        assert_cache_exact(online)
        online.observe(*edge, before.max_delay)  # an honest sample again
        assert_cache_exact(online)
        online.reset()
        online.observe(*edge, before.min_delay)
        assert_cache_exact(online)

    def test_poison_fallback_drop_recover(self):
        scenario = bounded_uniform(ring(5), lb=1.0, ub=3.0, seed=17)
        online = OnlineSynchronizer(scenario.system, fallback=True)
        online.ingest_views(scenario.run().views())
        good = online.result()
        assert_cache_exact(online)
        online.observe(0, 1, online.edge_stats(0, 1).min_delay - 10.0)
        # A second, honest change while inconsistent must survive too.
        online.observe(2, 3, online.edge_stats(2, 3).min_delay - 0.01)
        assert online.result() is good
        assert online.result() is good  # retried, still inconsistent
        assert online.in_fallback
        assert online.drop_edge_stats(0, 1)
        recovered = online.result()
        assert not online.in_fallback
        assert_cache_exact(online)

        fresh = OnlineSynchronizer(scenario.system)
        for (p, q), stats in stats_of(online).items():
            fresh.observe(p, q, stats.min_delay)
            fresh.observe(p, q, stats.max_delay)
        expected = fresh.result()
        assert bits(recovered.corrections) == bits(expected.corrections)
        assert bits(recovered.ms_tilde) == bits(expected.ms_tilde)
        assert bits(recovered.mls_tilde) == bits(expected.mls_tilde)
        assert recovered.precision == expected.precision

    def test_inconsistent_refresh_commits_nothing(self):
        scenario = bounded_uniform(ring(5), lb=1.0, ub=3.0, seed=17)
        online = OnlineSynchronizer(scenario.system)
        online.ingest_views(scenario.run().views())
        online.result()
        cached = bits(online._last_mls)
        online.observe(0, 1, online.edge_stats(0, 1).min_delay - 10.0)
        with pytest.raises(InconsistentViewsError):
            online.result()
        assert bits(online._last_mls) == cached
        assert online._dirty == {(0, 1)}


def rho_bar_loop(ms_tilde, corrections):
    """The scalar double loop ``rho_bar`` replaced; kept as the oracle."""
    processors = list(corrections)
    if len(processors) <= 1:
        return 0.0
    worst = 0.0
    for p in processors:
        for q in processors:
            if p == q:
                continue
            ms = ms_tilde.get((p, q), INF)
            if ms == INF:
                return INF
            value = ms - corrections[p] + corrections[q]
            if value > worst:
                worst = value
    return worst


finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def rho_bar_instances(draw):
    k = draw(st.integers(1, 6))
    processors = list(range(k))
    entry = st.one_of(finite, finite, finite, st.just(INF), st.none())
    ms = {}
    for p in processors:
        for q in processors:
            value = draw(entry)
            if value is not None:
                ms[(p, q)] = value
    corrections = {p: draw(finite) for p in processors}
    return processors, ms, corrections


class TestArrayRhoBar:
    @settings(max_examples=300, deadline=None)
    @given(rho_bar_instances())
    def test_bit_equal_to_scalar_loop(self, instance):
        processors, ms, corrections = instance
        expected = rho_bar_loop(ms, corrections)
        assert rho_bar(ms, corrections).hex() == expected.hex()
        # The same pairs as a view over a dense matrix (missing = inf).
        index = ProcessorIndex(processors)
        matrix = np.array(
            [[ms.get((p, q), INF) for q in processors] for p in processors]
        )
        view = PairView(matrix, index)
        assert rho_bar(view, corrections).hex() == expected.hex()
        # A subset of processors gathers a submatrix, in the given order.
        subset = {p: corrections[p] for p in reversed(processors[1:])}
        assert rho_bar(view, subset).hex() == rho_bar_loop(ms, subset).hex()

    def test_unknown_processor_is_infinite(self):
        view = PairView(np.zeros((2, 2)), ProcessorIndex([0, 1]))
        assert rho_bar(view, {0: 0.0, 9: 0.0}) == INF
        assert rho_bar(view, {9: 0.0}) == 0.0


class TestTampering:
    """Each certificate failure is caught on a view and on a plain dict."""

    @pytest.fixture(params=["view", "dict"])
    def result(self, request, synced):
        _, result = synced
        if request.param == "dict":
            return dataclasses.replace(result, ms_tilde=dict(result.ms_tilde))
        return result

    def test_untampered_certifies_identically(self, result, synced):
        _, original = synced
        assert verify_certificate(result) == verify_certificate(original)

    def test_upper_bound_violation(self, result):
        corrections = dict(result.corrections)
        corrections[next(iter(corrections))] += 50.0
        cheat = dataclasses.replace(result, corrections=corrections)
        with pytest.raises(CertificateError, match="rho_bar"):
            verify_certificate(cheat)

    def test_missing_witness(self, result):
        component = dataclasses.replace(
            result.components[0], critical_cycle=None
        )
        cheat = dataclasses.replace(result, components=(component,))
        with pytest.raises(CertificateError, match="witness"):
            verify_certificate(cheat)
        hits = OptimalityMonitor().check(None, cheat)
        assert [v.message for v in hits] == [
            f"component {component.processors!r} has no critical cycle "
            "witness"
        ]

    def test_broken_cycle_mean(self, result):
        # Lowering one cycle edge lowers the cycle mean but can only
        # lower rho_bar, so the upper bound still holds.
        cycle = result.components[0].critical_cycle
        edge = (cycle[0], cycle[1 % len(cycle)])
        ms = dict(result.ms_tilde)
        ms[edge] -= 1.0 * len(cycle)
        if isinstance(result.ms_tilde, PairView):
            index = result.ms_tilde.index
            matrix = np.array(result.ms_tilde.matrix)
            matrix[index.row(edge[0]), index.row(edge[1])] = ms[edge]
            ms = PairView(matrix, index)
        cheat = dataclasses.replace(result, ms_tilde=ms)
        with pytest.raises(CertificateError, match="cycle mean"):
            verify_certificate(cheat)


class TestClosureMonitorRepresentations:
    def test_view_and_dict_report_the_same_violations(self, synced):
        _, result = synced
        index = result.ms_tilde.index
        matrix = np.array(result.ms_tilde.matrix)
        p, q = next(iter(result.mls_tilde))
        matrix[index.row(p), index.row(q)] += 100.0
        matrix[2, 2] = 0.5
        view = dataclasses.replace(result, ms_tilde=PairView(matrix, index))
        plain = dataclasses.replace(result, ms_tilde=dict(view.ms_tilde))
        monitor = ClosureStructureMonitor()
        from_view = [v.to_dict() for v in monitor.check(None, view)]
        from_dict = [v.to_dict() for v in monitor.check(None, plain)]
        assert from_view == from_dict
        messages = [v["message"] for v in from_view]
        assert any("expected 0" in m for m in messages)
        assert any("exceeds direct" in m for m in messages)
        assert any(m.startswith("triangle broken") for m in messages)
