"""The typed run configuration and unified source adapter.

ISSUE requirements covered here:

* :class:`repro.Session` / :class:`repro.ObsOptions` carry the
  cross-cutting knobs once, and :class:`repro.ObsOptions` activates as
  a context manager;
* ``repro.run(source=...)`` accepts a recorded execution, a views
  mapping, a simulator scenario, a live probe log, and paths to both
  archive kinds -- all yielding the same corrections for the same
  underlying timing (Claim 3.1);
* the retired ``execution=`` compatibility shim stays retired: the old
  keyword fails loudly instead of silently doing something else.
"""

import argparse

import pytest

import repro
from repro import ObsOptions, Session, resolve_source
from repro.graphs.topology import ring
from repro.live.trace import ProbeLog, write_probe_log
from repro.live.wire import Report
from repro.obs.recorder import get_recorder
from repro.workloads.scenarios import bounded_uniform


@pytest.fixture
def scenario():
    return bounded_uniform(ring(4), lb=1.0, ub=3.0, probes=2, seed=7)


class TestObsOptions:
    def test_defaults_are_inert(self):
        options = ObsOptions()
        assert not options.wanted
        with options.activate() as recorder:
            assert recorder is None
            assert not get_recorder().enabled

    def test_force_installs_recorder(self):
        with ObsOptions(force=True).activate() as recorder:
            assert recorder is not None
            assert get_recorder() is recorder

    def test_from_args_collects_shared_flags(self):
        args = argparse.Namespace(
            trace_out="t.json", metrics_out=None, flow_out=None,
            log_jsonl=None, log_level="info", timings=True,
        )
        options = ObsOptions.from_args(args)
        assert options.trace_out == "t.json"
        assert options.log_level == "info"
        assert options.timings and options.wanted

    def test_exports_on_exit(self, tmp_path, scenario):
        notices = []
        out = tmp_path / "trace.json"
        options = ObsOptions(trace_out=str(out))
        with options.activate(printer=notices.append):
            repro.run(scenario.system, scenario.run())
        assert out.exists()
        assert any("trace written" in n for n in notices)


class TestSession:
    def test_fault_plan_loads_path(self, tmp_path):
        import json

        from repro.faults.plan import FaultPlan

        path = tmp_path / "plan.json"
        path.write_text(json.dumps(FaultPlan().to_json()))
        plan = Session(faults=str(path)).fault_plan()
        assert isinstance(plan, FaultPlan)
        assert Session().fault_plan() is None

    def test_run_takes_session_defaults(self, scenario):
        execution = scenario.run()
        base = repro.run(scenario.system, execution)
        via_session = repro.run(
            scenario.system, execution,
            session=Session(certify=True),
        )
        assert via_session.corrections == base.corrections
        assert via_session.precision == base.precision

    def test_sweep_takes_session(self, scenario):
        def builder(topology, seed):
            return bounded_uniform(topology, lb=1.0, ub=3.0, seed=seed)

        table = repro.sweep(
            {"bounded": builder}, [ring(3)], seeds=(0,),
            session=Session(certify=True, workers=1),
        )
        assert len(table.rows) == 1


class TestResolveSource:
    def test_execution_and_views_equivalent(self, scenario):
        execution = scenario.run()
        assert resolve_source(execution) == execution.views()
        views = execution.views()
        assert resolve_source(views) is views

    def test_views_mapping_validated(self):
        with pytest.raises(TypeError, match="View values"):
            resolve_source({"p": "not a view"})

    def test_scenario_is_run_once(self, scenario):
        views = resolve_source(scenario)
        assert set(views) == set(scenario.system.processors)

    def test_probe_log_uses_processors(self):
        log = ProbeLog([
            Report(sender="p", receiver="q", seq=0,
                   send_clock=0.0, recv_clock=0.5),
        ])
        views = resolve_source(log, processors=("p", "q", "r"))
        assert set(views) == {"p", "q", "r"}

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError, match="unsupported source"):
            resolve_source(42)

    def test_probe_log_path_sniffed(self, tmp_path):
        path = write_probe_log(tmp_path / "probes.jsonl", [
            Report(sender="p", receiver="q", seq=0,
                   send_clock=0.0, recv_clock=0.5),
            Report(sender="q", receiver="p", seq=0,
                   send_clock=0.25, recv_clock=0.3),
        ])
        views = resolve_source(str(path), processors=("p", "q"))
        assert set(views) == {"p", "q"}

    def test_trace_archive_path_sniffed(self, tmp_path, scenario):
        from repro.analysis.trace import save_execution

        execution = scenario.run()
        path = tmp_path / "trace.json"
        save_execution(execution, path)
        result_from_path = repro.run(scenario.system, str(path))
        result_direct = repro.run(scenario.system, execution)
        assert result_from_path.corrections == result_direct.corrections

    def test_garbage_path_rejected(self, tmp_path):
        from repro.live.trace import ProbeLogError

        path = tmp_path / "garbage.json"
        path.write_text('{"neither": "kind"}')
        with pytest.raises(ProbeLogError, match="neither"):
            resolve_source(str(path))


class TestRunSourceApi:
    def test_live_probe_log_end_to_end(self):
        """A probe log through repro.run == the raw batch pipeline."""
        from repro.core.synchronizer import ClockSynchronizer
        from repro.live.cluster import live_system
        from repro.graphs.topology import complete

        system = live_system(complete(2))
        log = ProbeLog([
            Report(sender=0, receiver=1, seq=s,
                   send_clock=2.0 * s, recv_clock=2.0 * s + 0.5 + 0.1 * s)
            for s in range(3)
        ] + [
            Report(sender=1, receiver=0, seq=s,
                   send_clock=2.0 * s + 1.0,
                   recv_clock=2.0 * s + 1.4 + 0.05 * s)
            for s in range(3)
        ])
        via_run = repro.run(system, log)
        direct = ClockSynchronizer(system).from_views(
            log.views(processors=system.processors)
        )
        assert via_run.corrections == direct.corrections
        assert via_run.precision == direct.precision

    def test_execution_keyword_removed(self, scenario):
        # The one-release ``execution=`` compatibility shim is gone:
        # the old keyword now fails like any unknown keyword.
        execution = scenario.run()
        with pytest.raises(TypeError):
            repro.run(scenario.system, execution=execution)

    def test_no_source_rejected(self, scenario):
        with pytest.raises(TypeError, match="source"):
            repro.run(scenario.system)
