"""E9 -- Algorithmic scaling of the pipeline.

The paper cites Karp's ``O(n^3)`` bound for computing ``A^max`` on the
complete shift graph.  This experiment times the three pipeline stages
separately (local estimates, then the default engine's GLOBAL ESTIMATES
and SHIFTS) as ``n`` grows on ring topologies (sparse communication
graph, dense ``ms~`` graph) and reports the growth rate of the dominant
stage.
"""

from __future__ import annotations

import time
from typing import List

from repro.analysis.reporting import Table
from repro.core.estimates import local_shift_estimates
from repro.engine import ProcessorIndex, create_engine
from repro.graphs import ring
from repro.workloads.scenarios import bounded_uniform


def _time_stages(n: int, seed: int = 0):
    scenario = bounded_uniform(ring(n), lb=1.0, ub=3.0, probes=2, seed=seed)
    alpha = scenario.run()
    views = alpha.views()
    index = ProcessorIndex(scenario.system.processors)
    engine = create_engine()

    t0 = time.perf_counter()
    mls = local_shift_estimates(scenario.system, views)
    t1 = time.perf_counter()
    ms = engine.global_estimates(index.matrix(mls))
    t2 = time.perf_counter()
    outcome = engine.shifts(ms)
    t3 = time.perf_counter()
    return {
        "mls": t1 - t0,
        "global": t2 - t1,
        "shifts": t3 - t2,
        "precision": outcome.a_max,
    }


def _engine_table(quick: bool) -> Table:
    """Matrix engines head to head on the full estimates->shifts pipeline."""
    from repro.core.synchronizer import ClockSynchronizer
    from repro.engine import available_backends

    backends = available_backends()
    table = Table(
        title="E9c: matrix engine backends on the full pipeline "
        "(GLOBAL ESTIMATES + components + SHIFTS)",
        headers=["n"] + [f"{b} (s)" for b in backends] + ["speedup"],
    )
    sizes = [8, 16] if quick else [8, 16, 32, 64]
    for n in sizes:
        scenario = bounded_uniform(ring(n), lb=1.0, ub=3.0, probes=2, seed=0)
        alpha = scenario.run()
        mls = local_shift_estimates(scenario.system, alpha.views())
        elapsed = {}
        precisions = {}
        for backend in backends:
            sync = ClockSynchronizer(scenario.system, backend=backend)
            sync.from_local_estimates(mls)  # warm-up (JIT-free, but caches)
            t0 = time.perf_counter()
            result = sync.from_local_estimates(mls)
            elapsed[backend] = time.perf_counter() - t0
            precisions[backend] = result.precision
        reference = precisions[backends[0]]
        for backend in backends[1:]:
            assert abs(precisions[backend] - reference) < 1e-7
        table.add_row(
            n,
            *(elapsed[b] for b in backends),
            elapsed["python"] / max(elapsed["numpy"], 1e-12),
        )
    table.add_note(
        "same corrections and A^max from every backend (asserted); the "
        "numpy engine replaces per-edge dict work with dense min-plus / "
        "Karp / Bellman--Ford matrix kernels"
    )
    return table


def run(quick: bool = False) -> List[Table]:
    """Run the experiment (trimmed sweep when ``quick``); see module docstring."""
    sizes = [8, 16, 24] if quick else [8, 16, 32, 48, 64]
    table = Table(
        title="E9a: pipeline stage times vs network size (ring-n)",
        headers=[
            "n",
            "mls~ (s)",
            "GLOBAL ESTIMATES (s)",
            "SHIFTS (s)",
            "total (s)",
        ],
    )
    timings = []
    for n in sizes:
        t = _time_stages(n)
        timings.append((n, t))
        table.add_row(
            n,
            t["mls"],
            t["global"],
            t["shifts"],
            t["mls"] + t["global"] + t["shifts"],
        )
    if len(timings) >= 2:
        n0, t0 = timings[0]
        n1, t1 = timings[-1]
        total0 = sum(v for k, v in t0.items() if k != "precision")
        total1 = sum(v for k, v in t1.items() if k != "precision")
        if total0 > 0:
            import math

            exponent = math.log(total1 / total0) / math.log(n1 / n0)
            table.add_note(
                f"empirical growth exponent ~ n^{exponent:.2f} "
                f"(SHIFTS dominates; Karp on the complete ms~ graph is O(n^3))"
            )
    return [table, _engine_table(quick)]


__all__ = ["run"]
