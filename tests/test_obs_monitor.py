"""Tests for the invariant monitors (repro.obs.monitor)."""

import dataclasses

import pytest

from repro.core.synchronizer import ClockSynchronizer
from repro.obs import recording
from repro.obs.monitor import (
    ClosureStructureMonitor,
    MlsSoundnessMonitor,
    MonitorSuite,
    MonitorViolationError,
    OptimalityMonitor,
    PrecisionBoundMonitor,
    Violation,
    default_monitors,
)


@pytest.fixture(scope="module")
def synced():
    from repro.graphs import ring
    from repro.workloads.scenarios import bounded_uniform

    scenario = bounded_uniform(ring(5), lb=1.0, ub=3.0, seed=42)
    alpha = scenario.run()
    result = ClockSynchronizer(scenario.system).from_execution(alpha)
    return scenario.system, alpha, result


class TestViolation:
    def test_to_dict_coerces_context(self):
        violation = Violation(
            monitor="m", reference="Thm", message="broke",
            sim_time=1.5, context={"edge": (0, 1), "value": 2.0},
        )
        data = violation.to_dict()
        assert data["record"] == "violation"
        assert data["context"]["edge"] == "(0, 1)"  # repr-coerced
        assert data["context"]["value"] == 2.0  # primitives pass through

    def test_strict_error_lists_violations(self):
        violations = [
            Violation(monitor="m", reference="r", message=f"v{i}")
            for i in range(7)
        ]
        error = MonitorViolationError(violations)
        text = str(error)
        assert "7 invariant violation(s)" in text
        assert "v0" in text and "... and 2 more" in text


class TestHonestRunsAreClean:
    def test_all_monitors_pass_on_complete_views(self, synced):
        system, alpha, result = synced
        for monitor in default_monitors():
            assert monitor.check(
                system, result, execution=alpha, complete=True
            ) == [], monitor.name

    def test_views_only_monitors_need_no_execution(self, synced):
        system, _, result = synced
        assert ClosureStructureMonitor().check(system, result) == []
        assert OptimalityMonitor().check(system, result) == []
        # Ground-truth monitors stay silent without ground truth.
        assert PrecisionBoundMonitor().check(system, result) == []
        assert MlsSoundnessMonitor().check(system, result) == []


class TestMonitorsCatchTampering:
    def test_closure_catches_nonzero_diagonal(self, synced):
        system, _, result = synced
        processor = next(iter(result.corrections))
        ms = dict(result.ms_tilde)
        ms[(processor, processor)] = 0.5
        tampered = dataclasses.replace(result, ms_tilde=ms)
        hits = ClosureStructureMonitor().check(system, tampered)
        assert any("expected 0" in v.message for v in hits)

    def test_closure_catches_broken_triangle(self, synced):
        system, _, result = synced
        (p, q), _ = next(
            (e, v) for e, v in result.ms_tilde.items() if e[0] != e[1]
        )
        ms = dict(result.ms_tilde)
        ms[(p, q)] = ms[(p, q)] + 100.0
        tampered = dataclasses.replace(result, ms_tilde=ms)
        hits = ClosureStructureMonitor().check(system, tampered)
        assert hits

    def test_optimality_catches_suboptimal_corrections(self, synced):
        system, _, result = synced
        corrections = dict(result.corrections)
        victim = next(iter(corrections))
        corrections[victim] += 50.0
        tampered = dataclasses.replace(result, corrections=corrections)
        hits = OptimalityMonitor().check(system, tampered)
        assert any("rho_bar" in v.message for v in hits)

    def test_precision_bound_catches_bad_corrections(self, synced):
        system, alpha, result = synced
        corrections = dict(result.corrections)
        victim = next(iter(corrections))
        corrections[victim] += 50.0
        tampered = dataclasses.replace(result, corrections=corrections)
        hits = PrecisionBoundMonitor().check(
            system, tampered, execution=alpha
        )
        assert any("realized spread" in v.message for v in hits)

    def test_soundness_catches_shrunken_bound(self, synced):
        system, alpha, result = synced
        starts = alpha.start_times()
        # Pick a pair with a positive true offset and shrink its bound
        # below the offset: the admissible interval no longer contains
        # the truth -- exactly what a corrupted d~ does.
        edge = max(
            (e for e in result.ms_tilde if e[0] != e[1]),
            key=lambda e: starts[e[0]] - starts[e[1]],
        )
        ms = dict(result.ms_tilde)
        ms[edge] = starts[edge[0]] - starts[edge[1]] - 1.0
        tampered = dataclasses.replace(result, ms_tilde=ms)
        hits = MlsSoundnessMonitor().check(
            system, tampered, execution=alpha
        )
        assert any("outside admissible bound" in v.message for v in hits)

    def test_soundness_identity_only_on_complete_views(self, synced):
        system, alpha, result = synced
        mls = dict(result.mls_tilde)
        edge = system.topology.links[0]
        mls[edge] = mls[edge] + 0.5  # looser estimate: sound but inexact
        tampered = dataclasses.replace(result, mls_tilde=mls)
        monitor = MlsSoundnessMonitor()
        prefix_hits = monitor.check(system, tampered, execution=alpha)
        complete_hits = monitor.check(
            system, tampered, execution=alpha, complete=True
        )
        assert prefix_hits == []  # a looser prefix estimate is legal...
        assert any(  # ...but on complete views the identity must be exact
            "mls + S_p - S_q" in v.message for v in complete_hits
        )


class TestMonitorSuite:
    def test_observes_pipeline_results_via_recorder(self, synced):
        system, alpha, _ = synced
        with recording() as recorder:
            suite = MonitorSuite(execution=alpha)
            recorder.add_observer(suite)
            ClockSynchronizer(system).from_execution(alpha)
        assert suite.checks == 1
        assert suite.ok
        assert recorder.registry.counter("monitor.checks").value == 1.0

    def test_strict_mode_raises(self, synced):
        system, alpha, result = synced
        corrections = {p: x + 50.0 * (p == 0) for p, x in
                       result.corrections.items()}
        tampered = dataclasses.replace(result, corrections=corrections)
        suite = MonitorSuite(strict=True)
        with pytest.raises(MonitorViolationError):
            suite.check(system, tampered)

    def test_inconsistent_event_becomes_violation(self):
        with recording() as recorder:
            suite = MonitorSuite()
            recorder.add_observer(suite)
            recorder.emit(
                "online.inconsistent",
                error="negative cycle", sim_time=4.5, observations=9,
            )
        assert len(suite.violations) == 1
        violation = suite.violations[0]
        assert violation.monitor == "consistency"
        assert violation.sim_time == 4.5
        assert not suite.ok

    def test_check_stamps_sim_time_from_recorder(self, synced):
        system, _, result = synced
        tampered = dataclasses.replace(
            result, ms_tilde={**result.ms_tilde, (0, 0): 1.0}
        )
        with recording() as recorder:
            recorder.set_sim_time(12.25)
            suite = MonitorSuite()
            suite.check(system, tampered)
        assert suite.violations
        assert all(v.sim_time == 12.25 for v in suite.violations)

    def test_summary_table_includes_event_monitors(self, synced):
        system, alpha, _ = synced
        with recording() as recorder:
            suite = MonitorSuite(execution=alpha)
            recorder.add_observer(suite)
            ClockSynchronizer(system).from_execution(alpha)
            recorder.emit("online.inconsistent", error="x", sim_time=0.0)
        rendered = suite.summary_table().format()
        assert "closure-structure" in rendered
        assert "consistency" in rendered

    def test_check_final_enables_identity(self, synced):
        system, alpha, result = synced
        suite = MonitorSuite()
        assert suite.check_final(system, result, alpha) == []
        assert suite.checks == 1
