"""Which sampler instance a simulated run draws from.

The rule (``repro.delays.distributions.run_copy``): the stateless
built-ins are shared, a ``CorrelatedLoad`` gets a fresh copy whose base
is redrawn every run and shared by both directions of its link, and any
other sampler gets a deep copy -- so no run state leaks into the next
run, nor into the caller's sampler.
"""

import random

import pytest

from repro.analysis.trace import execution_to_dict
from repro.delays.bounds import BoundedDelay
from repro.delays.distributions import (
    AsymmetricUniform,
    Bimodal,
    Constant,
    CorrelatedLoad,
    DelaySampler,
    ShiftedExponential,
    TruncatedNormal,
    UniformDelay,
    run_copy,
)
from repro.delays.system import System
from repro.graphs import ring
from repro.sim.network import NetworkSimulator
from repro.sim.wire import shared_streams
from repro.workloads.scenarios import bounded_uniform, round_trip_bias

STATELESS = (
    UniformDelay(1.0, 3.0),
    AsymmetricUniform(1.0, 2.0, 2.0, 3.0),
    ShiftedExponential(1.0, 0.5, cap=4.0),
    TruncatedNormal(2.0, 0.3, 1.0, 3.0),
    Constant(2.0),
)


class Remembering(DelaySampler):
    """A user sampler with mutable list state: each draw is longer than
    the last, so a leaked list changes every later delay."""

    def __init__(self):
        self.seen = []

    def sample(self, rng, direction):
        self.seen.append(direction)
        return 1.0 + 0.01 * len(self.seen)


class RememberingUniform(UniformDelay):
    """A subclass of a stateless built-in that adds state of its own."""

    def __init__(self, low, high):
        super().__init__(low, high)
        self.seen = []

    def sample(self, rng, direction):
        self.seen.append(direction)
        return super().sample(rng, direction)


@pytest.mark.parametrize("sampler", STATELESS, ids=lambda s: type(s).__name__)
def test_stateless_builtins_are_shared(sampler):
    assert run_copy(sampler) is sampler
    streams = shared_streams({(0, 1): sampler}, random.Random(0))
    assert streams[(0, 1)].sampler is sampler
    assert streams[(1, 0)].sampler is sampler


def test_correlated_load_gets_a_fresh_copy_per_run():
    sampler = CorrelatedLoad(1.0, 20.0, max_jitter=0.25)
    first = shared_streams({(0, 1): sampler}, random.Random(0))
    second = shared_streams({(0, 1): sampler}, random.Random(0))
    # One copy per run, shared by both directions of the link.
    assert first[(0, 1)].sampler is first[(1, 0)].sampler
    assert first[(0, 1)].sampler is not sampler
    assert first[(0, 1)].sampler is not second[(0, 1)].sampler
    first[(0, 1)].sampler.sample(random.Random(1), first[(0, 1)].direction)
    assert first[(0, 1)].sampler._base is not None
    assert sampler._base is None and second[(0, 1)].sampler._base is None


@pytest.mark.parametrize(
    "sampler",
    [
        Remembering(),
        RememberingUniform(1.0, 3.0),
        Bimodal(CorrelatedLoad(1.0, 2.0, 0.1), UniformDelay(3.0, 4.0), 0.5),
    ],
    ids=["user", "user-subclass", "bimodal"],
)
def test_other_samplers_get_a_deep_copy(sampler):
    copied = run_copy(sampler)
    assert copied is not sampler and type(copied) is type(sampler)
    if isinstance(sampler, Bimodal):
        assert copied.fast is not sampler.fast
        assert copied.slow is not sampler.slow


def test_runs_of_one_scenario_redraw_the_correlated_base():
    scenario = round_trip_bias(ring(4), bias=0.5, seed=3)
    first = execution_to_dict(scenario.run())
    second = execution_to_dict(scenario.run())
    # A base kept from the first run would skip a draw in the second.
    assert first == second
    assert all(s._base is None for s in scenario.samplers.values())
    # Another seed draws other bases, and running it first leaks nothing.
    other = NetworkSimulator(
        scenario.system, scenario.samplers, scenario.start_times, seed=4
    )
    assert execution_to_dict(other.run(scenario.automata)) != first
    assert execution_to_dict(scenario.run()) == first


def test_both_directions_share_one_base_per_run():
    scenario = round_trip_bias(ring(4), bias=0.5, seed=3)
    alpha = scenario.run()
    jitter = 0.25
    for p, q in scenario.system.topology.links:
        delays = [r.delay for r in alpha.records_on_edge(p, q)]
        delays += [r.delay for r in alpha.records_on_edge(q, p)]
        assert len(delays) == 2 * 3
        # base + jitter with |jitter| <= 0.25, the base in [1, 20]: one
        # base for both directions keeps every delay within 2 * 0.25.
        assert max(delays) - min(delays) <= 2 * jitter + 1e-12


@pytest.mark.parametrize("make", [Remembering, lambda: RememberingUniform(1.0, 3.0)])
def test_user_sampler_state_never_leaks_across_runs(make):
    base = bounded_uniform(ring(4), lb=1.0, ub=3.0, seed=5)
    system = System.uniform(ring(4), BoundedDelay.symmetric(0.0, 10.0))
    samplers = {link: make() for link in base.system.topology.links}
    simulator = NetworkSimulator(system, samplers, base.start_times, seed=5)
    first = execution_to_dict(simulator.run(base.automata))
    second = execution_to_dict(simulator.run(base.automata))
    assert first == second
    assert all(s.seen == [] for s in samplers.values())
