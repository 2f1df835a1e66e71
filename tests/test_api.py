"""Tests for the top-level facade: repro.run and repro.sweep."""

import pytest

import repro
from repro import (
    BoundedDelay,
    ClockSynchronizer,
    NetworkSimulator,
    System,
    UniformDelay,
    draw_start_times,
    probe_automata,
    probe_schedule,
    ring,
)
from repro.analysis.reporting import Table
from repro.core.optimality import CertificateError
from repro.workloads import bounded_uniform


def simulate(n=5, seed=7):
    topo = ring(n)
    system = System.uniform(topo, BoundedDelay.symmetric(1.0, 3.0))
    samplers = {link: UniformDelay(1.0, 3.0) for link in topo.links}
    starts = draw_start_times(topo.nodes, max_skew=10.0, seed=seed)
    sim = NetworkSimulator(system, samplers, starts, seed=seed)
    alpha = sim.run(probe_automata(topo, probe_schedule(3, 20.0, 5.0)))
    return system, alpha


def bounded_builder(topology, seed):
    return bounded_uniform(topology, lb=1.0, ub=3.0, seed=seed)


class TestRun:
    def test_exported_from_top_level(self):
        assert repro.run is not None
        assert repro.sweep is not None
        assert "run" in repro.__all__ and "sweep" in repro.__all__

    def test_matches_synchronizer_path(self):
        system, alpha = simulate()
        facade = repro.run(system, alpha)
        manual = ClockSynchronizer(system).from_execution(alpha)
        assert facade.precision == pytest.approx(manual.precision)
        assert facade.corrections == manual.corrections

    def test_accepts_views_mapping(self):
        system, alpha = simulate()
        from_views = repro.run(system, alpha.views())
        from_execution = repro.run(system, alpha)
        assert from_views.precision == from_execution.precision

    def test_certifies_by_default(self, monkeypatch):
        system, alpha = simulate()
        calls = []

        def fake_verify(result, **kwargs):
            calls.append(result)

        monkeypatch.setattr(repro.api, "verify_certificate", fake_verify)
        repro.run(system, alpha)
        assert len(calls) == 1
        repro.run(system, alpha, certify=False)
        assert len(calls) == 1  # not called again

    def test_certification_failure_propagates(self, monkeypatch):
        system, alpha = simulate()

        def failing_verify(result, **kwargs):
            raise CertificateError("forced")

        monkeypatch.setattr(repro.api, "verify_certificate", failing_verify)
        with pytest.raises(CertificateError, match="forced"):
            repro.run(system, alpha)

    def test_backend_and_options_are_keyword_only(self):
        system, alpha = simulate()
        with pytest.raises(TypeError):
            repro.run(system, alpha, "numpy")  # noqa: too many positionals


class TestSweep:
    def test_returns_summary_table(self):
        table = repro.sweep(
            {"bounded": bounded_builder}, [ring(4)], seeds=range(2)
        )
        assert isinstance(table, Table)
        assert len(table.rows) == 1
        assert table.headers[0] == "scenario"

    def test_accepts_pairs_and_mappings(self):
        from_mapping = repro.sweep(
            {"bounded": bounded_builder}, [ring(4)], seeds=range(2)
        )
        from_pairs = repro.sweep(
            [("bounded", bounded_builder)], [ring(4)], seeds=range(2)
        )
        assert from_pairs.format() == from_mapping.format()

    def test_workers_do_not_change_the_table(self):
        kwargs = dict(seeds=range(2))
        seq = repro.sweep(
            {"bounded": bounded_builder}, [ring(4), ring(6)], **kwargs
        )
        pool = repro.sweep(
            {"bounded": bounded_builder}, [ring(4), ring(6)],
            workers=2, **kwargs
        )
        assert pool.format() == seq.format()

    def test_shard_and_cache_pass_through(self, tmp_path):
        table = repro.sweep(
            {"bounded": bounded_builder},
            [ring(4)],
            seeds=range(2),
            shard="1/1",
            cache_dir=str(tmp_path),
        )
        assert len(table.rows) == 1
        assert len(list(tmp_path.glob("*.json"))) == 2  # both cells cached

    def test_matches_campaign_api(self):
        from repro.workloads import Campaign

        campaign = Campaign(seeds=range(2))
        campaign.add("bounded", bounded_builder)
        assert repro.sweep(
            {"bounded": bounded_builder}, [ring(4)], seeds=range(2)
        ).format() == campaign.run([ring(4)]).format()
