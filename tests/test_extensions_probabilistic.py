"""Tests for probabilistic delay knowledge (repro.extensions.probabilistic)."""

import math
import random

import pytest

from repro.core.errors import InconsistentViewsError
from repro.core.precision import realized_spread
from repro.delays.distributions import DelaySampler, Direction
from repro.delays.system import System
from repro.extensions.probabilistic import (
    EmpiricalDelay,
    ExponentialDelay,
    UniformDelayDistribution,
    derive_bounded_system,
    probabilistic_synchronize,
)
from repro.graphs.topology import ring
from repro.sim.network import NetworkSimulator, draw_start_times
from repro.sim.protocols import probe_automata, probe_schedule


class _DistributionSampler(DelaySampler):
    """Adapter: drive the simulator with a DelayDistribution."""

    def __init__(self, dist):
        self._dist = dist

    def sample(self, rng: random.Random, direction: Direction):
        return self._dist.sample(rng)


def run_probabilistic(topo, dist, delta, seed, probes=3):
    """Simulate reality = dist, then synchronize probabilistically."""
    from repro.delays.bounds import no_bounds

    # The simulator needs *some* declared system; use no-bounds so any
    # draw is admissible (reality has no hard bounds here).
    system = System.uniform(topo, no_bounds())
    samplers = {link: _DistributionSampler(dist) for link in topo.links}
    starts = draw_start_times(topo.nodes, 10.0, seed)
    sim = NetworkSimulator(system, samplers, starts, seed=seed)
    alpha = sim.run(
        dict(probe_automata(topo, probe_schedule(probes, 11.0, 3.0)))
    )
    dists = {link: dist for link in topo.links}
    result = probabilistic_synchronize(topo, alpha.views(), dists, delta)
    return alpha, result


class TestQuantiles:
    def test_exponential_closed_form(self):
        dist = ExponentialDelay(minimum=1.0, mean_extra=2.0)
        assert dist.quantile(0.0) == pytest.approx(1.0)
        assert dist.quantile(1 - math.exp(-1)) == pytest.approx(3.0)
        with pytest.raises(ValueError):
            dist.quantile(1.0)  # unbounded support

    def test_uniform_closed_form(self):
        dist = UniformDelayDistribution(1.0, 3.0)
        assert dist.quantile(0.0) == 1.0
        assert dist.quantile(0.5) == 2.0
        assert dist.quantile(1.0) == 3.0

    def test_empirical_interpolation(self):
        dist = EmpiricalDelay(samples=(1.0, 2.0, 3.0, 4.0, 5.0))
        assert dist.quantile(0.0) == 1.0
        assert dist.quantile(1.0) == 5.0
        assert dist.quantile(0.5) == 3.0
        assert dist.quantile(0.125) == pytest.approx(1.5)

    def test_empirical_validation(self):
        with pytest.raises(ValueError):
            EmpiricalDelay(samples=(1.0,))
        with pytest.raises(ValueError):
            EmpiricalDelay(samples=(1.0, -2.0))

    def test_interval_coverage_and_clamping(self):
        dist = ExponentialDelay(minimum=0.0, mean_extra=1.0)
        low, high = dist.interval(0.1)
        assert low >= 0.0
        assert high == pytest.approx(dist.quantile(0.95))
        with pytest.raises(ValueError):
            dist.interval(0.0)

    def test_samples_match_support(self):
        rng = random.Random(1)
        exp = ExponentialDelay(minimum=1.0, mean_extra=2.0)
        assert all(exp.sample(rng) >= 1.0 for _ in range(100))
        emp = EmpiricalDelay(samples=(1.0, 2.0, 3.0))
        assert all(emp.sample(rng) in {1.0, 2.0, 3.0} for _ in range(20))


class TestDerivedSystem:
    def test_bounds_from_quantiles(self):
        topo = ring(3)
        dist = UniformDelayDistribution(1.0, 3.0)
        system = derive_bounded_system(
            topo, {link: dist for link in topo.links}, epsilon_per_message=0.1
        )
        assumption = system.assumptions[topo.links[0]]
        assert assumption.lb_forward == pytest.approx(dist.quantile(0.05))
        assert assumption.ub_forward == pytest.approx(dist.quantile(0.95))

    def test_missing_distribution_rejected(self):
        topo = ring(3)
        with pytest.raises(KeyError):
            derive_bounded_system(topo, {}, epsilon_per_message=0.1)


class TestSynchronization:
    def test_finite_precision_from_unbounded_distribution(self):
        """The headline: exponential (unbounded) delays + distributional
        knowledge yields a finite high-confidence precision."""
        dist = ExponentialDelay(minimum=0.5, mean_extra=1.0)
        _, result = run_probabilistic(ring(4), dist, delta=0.05, seed=3)
        assert not math.isinf(result.precision)
        assert result.confidence == pytest.approx(0.95)

    def test_delta_validation(self):
        dist = UniformDelayDistribution(1.0, 3.0)
        alpha, result = run_probabilistic(ring(4), dist, delta=0.1, seed=1)
        views = alpha.views()
        dists = {link: dist for link in ring(4).links}
        with pytest.raises(ValueError):
            probabilistic_synchronize(ring(4), views, dists, delta=0.0)
        with pytest.raises(ValueError):
            probabilistic_synchronize(ring(4), views, dists, delta=1.0)

    def test_larger_delta_gives_tighter_precision(self):
        """Spending more failure budget narrows the intervals, which can
        only improve (never worsen) the claimed precision."""
        dist = ExponentialDelay(minimum=0.5, mean_extra=1.0)
        alpha, _ = run_probabilistic(ring(4), dist, delta=0.5, seed=7)
        views = alpha.views()
        dists = {link: dist for link in ring(4).links}
        previous = math.inf
        for delta in (0.001, 0.01, 0.1, 0.5):
            try:
                result = probabilistic_synchronize(ring(4), views, dists, delta)
            except InconsistentViewsError:
                # Aggressive budgets can be contradicted by this very
                # sample -- a *detected* failure, allowed with prob <= delta.
                break
            assert result.precision <= previous + 1e-9
            previous = result.precision

    def test_empirical_coverage_respects_confidence(self):
        """Over many runs, the derived bounds must hold (and hence the
        deterministic guarantee apply) in at least ~1 - delta of them."""
        dist = ExponentialDelay(minimum=0.5, mean_extra=1.5)
        delta = 0.2
        held = 0
        spread_ok = 0
        trials = 30
        for seed in range(trials):
            try:
                alpha, result = run_probabilistic(
                    ring(4), dist, delta=delta, seed=seed
                )
            except InconsistentViewsError:
                # A *detected* bound failure: the derived assumptions were
                # contradicted by the sample.  Allowed with prob <= delta.
                continue
            if result.bounds_held(alpha):
                held += 1
                spread = realized_spread(
                    alpha.start_times(), result.corrections
                )
                if spread <= result.precision + 1e-9:
                    spread_ok += 1
        coverage = held / trials
        # Union bound is conservative; allow generous sampling slack.
        assert coverage >= 1.0 - 2 * delta
        # Whenever the bounds held, the deterministic guarantee held too.
        assert spread_ok == held

    def test_no_messages_rejected(self):
        from repro.model.builder import ExecutionBuilder

        alpha = (
            ExecutionBuilder()
            .processor(0, start=0.0)
            .processor(1, start=0.0)
            .build()
        )
        from repro.graphs.topology import line

        dists = {(0, 1): UniformDelayDistribution(1.0, 3.0)}
        with pytest.raises(ValueError, match="no messages"):
            probabilistic_synchronize(line(2), alpha.views(), dists, 0.1)
