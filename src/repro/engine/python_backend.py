"""Reference backend: the original dict/digraph pipeline behind matrices.

This backend is the *semantics oracle* the numpy backend is
property-tested against (see ``tests/test_engine_parity.py``); no
production path selects it.  It runs the scalar code: Floyd--Warshall
for GLOBAL ESTIMATES, Tarjan for components, and
:func:`repro.core.shifts.shifts` (Karp + Bellman--Ford on
:class:`~repro.graphs.digraph.WeightedDigraph`) for SHIFTS.  Matrix rows
double as node ids, so the translation layer is a thin dict build.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro._types import Edge, INF
from repro.core.global_estimates import global_shift_estimates
from repro.core.shifts import shifts as reference_shifts
from repro.engine.base import EngineShifts, SyncEngine
from repro.graphs.digraph import WeightedDigraph


class PythonEngine(SyncEngine):
    """The dict/digraph reference implementation."""

    name = "python"

    def _closure(self, mls_matrix: np.ndarray) -> np.ndarray:
        n = len(mls_matrix)
        pairs: Dict[Edge, float] = {}
        for i in range(n):
            row = mls_matrix[i]
            for j in range(n):
                if i == j:
                    if row[j] < 0.0:  # negative self-loop = negative cycle
                        pairs[(i, j)] = float(row[j])
                elif row[j] != INF:
                    pairs[(i, j)] = float(row[j])
        ms = global_shift_estimates(list(range(n)), pairs)
        out = np.full((n, n), INF)
        for (i, j), weight in ms.items():
            out[i, j] = weight
        return out

    def _components(
        self, mls_matrix: np.ndarray, ms_matrix: np.ndarray
    ) -> List[List[int]]:
        n = len(mls_matrix)
        graph = WeightedDigraph()
        for i in range(n):
            graph.add_node(i)
        for i in range(n):
            row = mls_matrix[i]
            for j in range(n):
                if i != j and row[j] != INF:
                    graph.add_edge(i, j, float(row[j]))
        components = [
            sorted(scc) for scc in graph.strongly_connected_components()
        ]
        components.sort(key=lambda scc: scc[0])
        return components

    def _shifts(self, sub: np.ndarray, root_local: int) -> EngineShifts:
        n = len(sub)
        local = list(range(n))
        ms_dict: Dict[Tuple[int, int], float] = {
            (i, j): float(sub[i, j]) for i in local for j in local
        }
        outcome = reference_shifts(local, ms_dict, root=root_local)
        corrections = np.array([outcome.corrections[i] for i in local])
        cycle = (
            tuple(outcome.critical_cycle)
            if outcome.critical_cycle is not None
            else None
        )
        return EngineShifts(
            corrections=corrections, a_max=outcome.precision, cycle_rows=cycle
        )


__all__ = ["PythonEngine"]
