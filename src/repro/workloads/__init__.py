"""Reproducible workload scenarios for experiments, tests and examples."""

from repro.runner.cells import CellResult
from repro.workloads.campaign import (
    Campaign,
    CampaignCell,
    ScenarioBuilder,
    summarize_groups,
)
from repro.workloads.parallel import CampaignOutcome, run_campaign
from repro.workloads.scenarios import (
    Scenario,
    asymmetric_bounded,
    bounded_uniform,
    fully_asynchronous,
    heterogeneous,
    lower_bound_only,
    round_trip_bias,
)

__all__ = [
    "Campaign",
    "CampaignCell",
    "CampaignOutcome",
    "CellResult",
    "ScenarioBuilder",
    "Scenario",
    "asymmetric_bounded",
    "bounded_uniform",
    "fully_asynchronous",
    "heterogeneous",
    "lower_bound_only",
    "round_trip_bias",
    "run_campaign",
    "summarize_groups",
]
