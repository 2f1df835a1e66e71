"""Cross-backend matrix: both engine backends, every delay model.

For each scenario family the numpy engine (the production path) and the
python reference engine must produce certified results with identical
precision and equally optimal corrections.
"""

import pytest

from repro.core.optimality import verify_certificate
from repro.core.precision import rho_bar
from repro.core.synchronizer import ClockSynchronizer
from repro.engine import available_backends
from repro.graphs.topology import ring
from repro.workloads.scenarios import (
    bounded_uniform,
    fully_asynchronous,
    heterogeneous,
    lower_bound_only,
    round_trip_bias,
)

SCENARIOS = {
    "bounded": lambda: bounded_uniform(ring(5), lb=1.0, ub=3.0, seed=5),
    "lower-only": lambda: lower_bound_only(ring(5), lb=1.0, mean_extra=2.0, seed=5),
    "async": lambda: fully_asynchronous(ring(5), mean_delay=2.0, seed=5),
    "bias": lambda: round_trip_bias(ring(5), bias=0.5, seed=5),
    "hetero": lambda: heterogeneous(ring(5), seed=5),
}


@pytest.mark.parametrize("scenario_name", sorted(SCENARIOS))
@pytest.mark.parametrize("backend", available_backends())
def test_backend_certified_on_every_model(scenario_name, backend):
    scenario = SCENARIOS[scenario_name]()
    alpha = scenario.run()
    result = ClockSynchronizer(
        scenario.system, backend=backend
    ).from_execution(alpha)
    verify_certificate(result)
    # Cross-check precision against the reference backend.
    reference = ClockSynchronizer(
        scenario.system, backend="python"
    ).from_execution(alpha)
    assert result.precision == pytest.approx(reference.precision, abs=1e-9)
    # Both correction sets are optimal under the same ms~.
    assert rho_bar(reference.ms_tilde, result.corrections) == pytest.approx(
        reference.precision, abs=1e-7
    )
