"""Tests for system serialization (repro.analysis.system_io)."""

import json

import pytest

from repro._types import INF
from repro.analysis.system_io import (
    SystemIOError,
    assumption_from_dict,
    assumption_to_dict,
    load_system,
    save_system,
    system_from_dict,
    system_to_dict,
)
from repro.delays.base import DelayAssumption, Term
from repro.delays.bias import RoundTripBias, RoundTripBiasUnsigned
from repro.delays.bounds import BoundedDelay, lower_bounds_only, no_bounds
from repro.delays.composite import Composite
from repro.delays.system import System
from repro.graphs.topology import Topology, line, ring
from repro.workloads.scenarios import heterogeneous


ASSUMPTIONS = [
    BoundedDelay.symmetric(1.0, 3.0),
    BoundedDelay(lb_forward=0.5, ub_forward=2.0, lb_reverse=1.0, ub_reverse=4.0),
    lower_bounds_only(1.0),
    no_bounds(),
    RoundTripBias(0.5),
    RoundTripBiasUnsigned(0.7),
    Composite.of(BoundedDelay.symmetric(0.0, 10.0), RoundTripBias(1.0)),
    Composite.of(
        Composite.of(lower_bounds_only(0.2), RoundTripBias(2.0)),
        BoundedDelay.symmetric(0.0, 30.0),
    ),
]


class TestAssumptionRoundTrip:
    @pytest.mark.parametrize("assumption", ASSUMPTIONS, ids=repr)
    def test_roundtrip(self, assumption):
        data = assumption_to_dict(assumption)
        json.dumps(data)  # must be JSON-native
        restored = assumption_from_dict(data)
        assert restored == assumption

    def test_infinite_bounds_encoded_as_string(self):
        data = assumption_to_dict(lower_bounds_only(1.0))
        assert data["ub_forward"] == "inf"
        restored = assumption_from_dict(data)
        assert restored.ub_forward == INF

    def test_unknown_kind_rejected(self):
        with pytest.raises(SystemIOError):
            assumption_from_dict({"kind": "mystery"})

    def test_unknown_type_rejected(self):
        class Weird(DelayAssumption):
            def terms(self):
                return (Term.lower(0.0),)

            def admits(self, forward, reverse):
                return True

            def flipped(self):
                return self

        with pytest.raises(SystemIOError):
            assumption_to_dict(Weird())


class TestSystemRoundTrip:
    def test_heterogeneous_system(self):
        system = heterogeneous(ring(5), seed=4).system
        restored = system_from_dict(system_to_dict(system))
        assert restored.topology.nodes == system.topology.nodes
        assert restored.topology.links == system.topology.links
        assert dict(restored.assumptions) == dict(system.assumptions)

    def test_string_node_ids(self):
        topo = Topology(name="wan", nodes=("a", "b"), links=(("a", "b"),))
        system = System.uniform(topo, no_bounds())
        restored = system_from_dict(system_to_dict(system))
        assert restored.topology.nodes == ("a", "b")

    def test_non_portable_node_ids_rejected(self):
        topo = Topology(name="odd", nodes=((1, 2), 3), links=(((1, 2), 3),))
        system = System.uniform(topo, no_bounds())
        with pytest.raises(SystemIOError, match="portable"):
            system_to_dict(system)

    def test_version_checked(self):
        system = System.uniform(line(2), no_bounds())
        data = system_to_dict(system)
        data["version"] = 42
        with pytest.raises(SystemIOError, match="version"):
            system_from_dict(data)

    def test_file_roundtrip(self, tmp_path):
        system = heterogeneous(ring(4), seed=1).system
        path = tmp_path / "system.json"
        save_system(system, path)
        restored = load_system(path)
        assert dict(restored.assumptions) == dict(system.assumptions)

    def test_restored_system_synchronizes_identically(self, tmp_path):
        from repro.core.synchronizer import ClockSynchronizer

        scenario = heterogeneous(ring(4), seed=6)
        alpha = scenario.run()
        path = tmp_path / "system.json"
        save_system(scenario.system, path)
        restored = load_system(path)
        a = ClockSynchronizer(scenario.system).from_execution(alpha)
        b = ClockSynchronizer(restored).from_execution(alpha)
        assert a.precision == b.precision
        assert a.corrections == b.corrections


class TestCliIntegration:
    def test_record_and_sync_trace(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "run"
        assert main(["record", str(out), "--scenario", "hetero",
                     "--size", "4", "--seed", "2"]) == 0
        assert main([
            "sync-trace", str(out / "system.json"), str(out / "trace.json")
        ]) == 0
        output = capsys.readouterr().out
        assert "certified optimal" in output
        assert "Corrections" in output
        assert "Pairwise guarantees" in output

    def test_sync_trace_flags_violations(self, tmp_path, capsys):
        from repro.analysis.system_io import save_system
        from repro.analysis.trace import save_execution
        from repro.cli import main
        from repro.delays.distributions import Constant, UniformDelay
        from repro.sim.network import NetworkSimulator, SimulationConfig
        from repro.sim.protocols import probe_automata, probe_schedule

        topo = ring(4)
        system = System.uniform(topo, BoundedDelay.symmetric(1.0, 3.0))
        samplers = {link: UniformDelay(1.0, 3.0) for link in topo.links}
        samplers[topo.links[0]] = Constant(9.0)
        sim = NetworkSimulator(
            system, samplers, {p: 0.0 for p in topo.nodes}, seed=0,
            config=SimulationConfig(validate=False),
        )
        alpha = sim.run(
            dict(probe_automata(topo, probe_schedule(2, 5.0, 2.0)))
        )
        save_system(system, tmp_path / "system.json")
        save_execution(alpha, tmp_path / "trace.json")
        assert main([
            "sync-trace",
            str(tmp_path / "system.json"),
            str(tmp_path / "trace.json"),
        ]) == 0
        output = capsys.readouterr().out
        assert "WARNING" in output
        assert "convicted" in output
