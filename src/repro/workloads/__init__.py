"""Reproducible workload scenarios for experiments, tests and examples."""

from repro._exports import lazy_exports

_EXPORTS = {
    "Campaign": "repro.workloads.campaign",
    "CampaignCell": "repro.workloads.campaign",
    "CampaignOutcome": "repro.workloads.parallel",
    "CellResult": "repro.runner.cells",
    "ScenarioBuilder": "repro.workloads.campaign",
    "Scenario": "repro.workloads.scenarios",
    "asymmetric_bounded": "repro.workloads.scenarios",
    "bounded_uniform": "repro.workloads.scenarios",
    "fully_asynchronous": "repro.workloads.scenarios",
    "heterogeneous": "repro.workloads.scenarios",
    "lower_bound_only": "repro.workloads.scenarios",
    "round_trip_bias": "repro.workloads.scenarios",
    "run_campaign": "repro.workloads.parallel",
    "summarize_groups": "repro.workloads.campaign",
}

__all__ = [*_EXPORTS]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
