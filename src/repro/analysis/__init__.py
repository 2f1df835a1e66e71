"""Evaluation harness: ground truth, the shifting adversary, reporting.

This package is the "outside observer" of the paper: it may read the real
times inside executions, which processors never can.  It supplies the
exact scoring machinery (true maximal shifts, admissibility predicates,
extremal equivalent executions) that turns the paper's optimality claims
into checkable numbers.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "Diagnosis": "repro.analysis.diagnosis",
    "diagnose": "repro.analysis.diagnosis",
    "diagnose_and_repair": "repro.analysis.diagnosis",
    "diagnose_local_estimates": "repro.analysis.diagnosis",
    "synchronize_excluding": "repro.analysis.diagnosis",
    "AdversaryError": "repro.analysis.adversary",
    "adversarial_execution": "repro.analysis.adversary",
    "extremal_shift_vector": "repro.analysis.adversary",
    "random_admissible_shift_vector": "repro.analysis.adversary",
    "worst_case_spread": "repro.analysis.adversary",
    "locally_admissible_interval": "repro.analysis.ground_truth",
    "shift_vector_is_admissible": "repro.analysis.ground_truth",
    "true_global_shifts": "repro.analysis.ground_truth",
    "Summary": "repro.analysis.metrics",
    "geometric_mean": "repro.analysis.metrics",
    "ratio": "repro.analysis.metrics",
    "summarize": "repro.analysis.metrics",
    "Table": "repro.analysis.reporting",
    "fmt": "repro.analysis.reporting",
    "components_table": "repro.analysis.report",
    "corrections_table": "repro.analysis.report",
    "pairwise_table": "repro.analysis.report",
    "sync_report": "repro.analysis.report",
    "EdgeTraffic": "repro.analysis.stats",
    "ExecutionStats": "repro.analysis.stats",
    "execution_statistics": "repro.analysis.stats",
    "traffic_table": "repro.analysis.stats",
    "SystemIOError": "repro.analysis.system_io",
    "load_system": "repro.analysis.system_io",
    "save_system": "repro.analysis.system_io",
    "system_from_dict": "repro.analysis.system_io",
    "system_to_dict": "repro.analysis.system_io",
    "TraceError": "repro.analysis.trace",
    "execution_from_dict": "repro.analysis.trace",
    "execution_to_dict": "repro.analysis.trace",
    "load_execution": "repro.analysis.trace",
    "save_execution": "repro.analysis.trace",
}

__all__ = [*_EXPORTS]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
