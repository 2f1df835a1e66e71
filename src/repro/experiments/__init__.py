"""The experiment suite (see DESIGN.md section 3 and EXPERIMENTS.md).

The PODC'93 paper is a theory paper -- its "evaluation" is its theorems.
Each experiment here turns one theorem or claim into numbers on simulated
systems.  Every experiment module exposes
``run(quick: bool = False) -> List[Table]``; the registry below maps the
experiment ids used throughout the documentation to those functions.

Run them via the CLI (``repro-clocksync experiment E1``) or the benchmark
harness (``pytest benchmarks/ --benchmark-only``).
"""

import importlib
from typing import TYPE_CHECKING, Callable, Dict, List

if TYPE_CHECKING:
    from repro.analysis.reporting import Table

#: Experiment id -> module under ``repro.experiments``.
_MODULES: Dict[str, str] = {
    "E1": "e1_optimality",
    "E2": "e2_local_shifts",
    "E3": "e3_unbounded",
    "E4": "e4_bias_vs_bounds",
    "E5": "e5_decomposition",
    "E6": "e6_lp_crosscheck",
    "E7": "e7_baselines",
    "E8": "e8_messages",
    "E9": "e9_scaling",
    "E10": "e10_extensions",
    "E11": "e11_windowed",
    "E12": "e12_probabilistic",
    "E13": "e13_diagnosis",
    "E14": "e14_convergence",
    "E15": "e15_faults",
    "E17": "e17_transport",
}


def _runner(module: str) -> Callable[..., List["Table"]]:
    """The experiment's ``run``, its module imported only when it runs."""

    def run(*args, **kwargs) -> List["Table"]:
        experiment = importlib.import_module(f"repro.experiments.{module}")
        return experiment.run(*args, **kwargs)

    return run


#: Experiment id -> runner.  Keep ids in sync with DESIGN.md / EXPERIMENTS.md.
REGISTRY: Dict[str, Callable[..., List["Table"]]] = {
    key: _runner(module) for key, module in _MODULES.items()
}

DESCRIPTIONS: Dict[str, str] = {
    "E1": "SHIFTS is optimal per instance (Thms 4.4/4.6) across topologies",
    "E2": "closed-form mls formulas vs brute-force search (Lemmas 6.2/6.5)",
    "E3": "finite per-execution precision without upper bounds (Sec 3, 6.1)",
    "E4": "round-trip bias vs absolute bounds, with crossover (Sec 6.2)",
    "E5": "decomposition theorem on heterogeneous systems (Thm 5.6)",
    "E6": "pipeline equals the Halpern-Megiddo-Munshi LP everywhere",
    "E7": "optimal vs NTP-style and Cristian-style baselines",
    "E8": "precision vs number of probes (monotone, diminishing returns)",
    "E9": "pipeline scaling in n (Karp O(n^3) stage dominates)",
    "E10": "extensions: leader-based distributed protocol; clock drift",
    "E11": "windowed bias: the 'sent around the same time' refinement",
    "E12": "probabilistic delay knowledge -> high-confidence precision",
    "E13": "detection/localization/repair of assumption violations",
    "E14": "online convergence over simulated time, theorem-monitored",
    "E15": "graceful degradation: precision vs injected message loss",
    "E17": "emergent retransmission delays: Section 6 models on transport traces",
}


def run_experiment(experiment_id: str, quick: bool = False) -> List["Table"]:
    """Run one experiment by id and return its tables."""
    key = experiment_id.upper()
    if key not in REGISTRY:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {sorted(REGISTRY)}"
        )
    return REGISTRY[key](quick=quick)


__all__ = ["REGISTRY", "DESCRIPTIONS", "run_experiment"]
