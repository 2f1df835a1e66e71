"""Reference backend: the original dict/digraph pipeline behind matrices.

This backend is the *semantics oracle* the numpy backend is
property-tested against (see ``tests/test_engine_parity.py``); no
production path selects it.  It runs the scalar code: Floyd--Warshall
for GLOBAL ESTIMATES, Tarjan for components, and
:func:`repro.core.shifts.shifts` (Karp + Bellman--Ford on
:class:`~repro.graphs.digraph.WeightedDigraph`) for SHIFTS.  Matrix rows
double as node ids, so the translation layer is a thin pair view.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.global_estimates import global_shift_estimates, shift_graph
from repro.core.shifts import shifts as reference_shifts
from repro.engine.base import EngineShifts, SyncEngine
from repro.engine.index import PairView, ProcessorIndex


class PythonEngine(SyncEngine):
    """The dict/digraph reference implementation."""

    name = "python"

    def _closure(self, mls_matrix: np.ndarray) -> np.ndarray:
        index = ProcessorIndex(range(len(mls_matrix)))
        # shift_graph drops the inf entries; the diagonal is <= 0, and a
        # negative self-loop is the negative-cycle signal.
        mls = PairView(mls_matrix, index)
        return index.matrix(global_shift_estimates(index, mls))

    def _components(
        self, mls_matrix: np.ndarray, ms_matrix: np.ndarray
    ) -> List[List[int]]:
        index = ProcessorIndex(range(len(mls_matrix)))
        graph = shift_graph(index, PairView(mls_matrix, index))
        components = [
            sorted(scc) for scc in graph.strongly_connected_components()
        ]
        components.sort(key=lambda scc: scc[0])
        return components

    def _shifts(self, sub: np.ndarray, root_local: int) -> EngineShifts:
        local = ProcessorIndex(range(len(sub)))
        outcome = reference_shifts(local, PairView(sub, local), root=root_local)
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
