"""Abstract matrix engine for the GLOBAL ESTIMATES -> SHIFTS pipeline.

An engine consumes dense row-indexed matrices (see
:class:`~repro.engine.index.ProcessorIndex`) and provides the four
operations the synchronization pipeline is made of:

* ``global_estimates`` -- min-plus closure of the ``mls~`` matrix
  (Theorem 5.5), raising
  :class:`~repro.core.errors.InconsistentViewsError` on a
  negative cycle;
* ``components`` -- the synchronization components (maximal row sets with
  finite pairwise ``ms~``), ordered by first row for stable roots;
* ``shifts`` -- SHIFTS (Theorems 4.4/4.6) on one component: the optimal
  precision ``A^max`` (maximum cycle mean), a critical cycle witness, and
  corrections as shortest-path distances under ``A^max - ms~``; a
  previous result's cycle may be passed as a warm-start hint, and the
  result reports whether the solve *settled*;
* ``keeps`` -- whether a settled solve is still exactly what SHIFTS
  would serve after some ``ms~`` entries decreased (the copy rule of
  :meth:`~repro.core.synchronizer.ClockSynchronizer.from_matrices`),
  answered with a :class:`KeepProof` that makes the next check
  O(changed entries); backends without the check answer ``None``;
* ``incremental_update`` -- optional single-edge decrease relaxation of a
  cached closure (used by :mod:`repro.extensions.online`), which also
  reports the cells it lowered; backends that do not support it return
  ``None`` and callers fall back to a full recompute.

Concrete backends implement the underscore hooks; the base class owns
argument validation and the per-stage timing in :attr:`SyncEngine.stats`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import ClassVar, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import UnboundedPrecisionError
from repro.engine.stats import EngineStats

INF = float("inf")


@dataclass(frozen=True)
class EngineShifts:
    """SHIFTS result in row space.

    ``corrections[k]`` is the correction of the processor in ``rows[k]``
    (the row sequence handed to :meth:`SyncEngine.shifts`); ``cycle_rows``
    is the critical-cycle witness, also as global row indices.

    ``settled`` is set when the engine served the canonical tight cycle
    of an unnudged Bellman--Ford pass under that cycle's exact mean and
    ``corrections`` are that pass's distances (DESIGN.md section 6): a
    warm re-solve of the same block would serve exactly this result.
    The python reference never sets it.
    """

    corrections: np.ndarray
    a_max: float
    cycle_rows: Optional[Tuple[int, ...]]
    settled: bool = False


class KeepProof(NamedTuple):
    """What a passed :meth:`SyncEngine.keeps` check established about a
    kept solve's block, so the next check reads only the changed entries
    (DESIGN.md section 6).

    ``scale`` is the block's tolerance scale ``max(1, max|ms~|)``;
    ``tree`` is a parent tree (``tree[root] == root``) along which every
    correction is the float sum of its path's weights from the root, or
    ``None`` when the check proved the corrections another way.
    """

    scale: float
    tree: Optional[np.ndarray]


class SyncEngine(ABC):
    """One backend of the matrix pipeline; stateless apart from stats.

    :attr:`stats` records into the process-wide recorder's registry when
    observability is enabled and into a private one otherwise (see
    :class:`~repro.engine.stats.EngineStats`).
    """

    #: Registry name of the backend (e.g. ``"python"``, ``"numpy"``).
    name: ClassVar[str] = "abstract"

    def __init__(self) -> None:
        self.stats = EngineStats()

    # ------------------------------------------------------------------
    # Public, validated + timed entry points
    # ------------------------------------------------------------------

    def global_estimates(self, mls_matrix: np.ndarray) -> np.ndarray:
        """``ms~`` matrix: min-plus closure of the ``mls~`` matrix."""
        _check_square(mls_matrix)
        with self.stats.stage("global_estimates"):
            return self._closure(mls_matrix)

    def components(
        self, mls_matrix: np.ndarray, ms_matrix: np.ndarray
    ) -> List[List[int]]:
        """Synchronization components as row lists (sorted, stable order)."""
        _check_square(mls_matrix)
        _check_square(ms_matrix)
        with self.stats.stage("components"):
            return self._components(mls_matrix, ms_matrix)

    def shifts(
        self,
        ms_matrix: np.ndarray,
        rows: Optional[Sequence[int]] = None,
        root_row: Optional[int] = None,
        hint: Optional[Sequence[int]] = None,
    ) -> EngineShifts:
        """SHIFTS over ``rows`` of the ``ms~`` matrix (default: all rows).

        ``hint`` is a likely critical cycle as rows (e.g. an earlier
        result's ``cycle_rows``); it is ignored unless every row of it is
        in ``rows``.  A hint only decides how the result is found, never
        what it is.

        Raises :class:`~repro.core.errors.UnboundedPrecisionError` when a
        pair inside ``rows`` has infinite estimate -- pass one
        synchronization component at a time to avoid it.
        """
        _check_square(ms_matrix)
        row_list = list(range(len(ms_matrix))) if rows is None else list(rows)
        if not row_list:
            raise ValueError("no rows")
        if root_row is None:
            root_row = row_list[0]
        elif root_row not in row_list:
            raise ValueError(f"root row {root_row} is not in rows")

        with self.stats.stage("shifts"):
            if len(row_list) == 1:
                return EngineShifts(
                    corrections=np.zeros(1), a_max=0.0, cycle_rows=None
                )
            sub = ms_matrix[np.ix_(row_list, row_list)]
            finite = np.isfinite(sub)
            np.fill_diagonal(finite, True)
            if not finite.all():
                raise UnboundedPrecisionError(
                    [(row_list[i], row_list[j]) for i, j in np.argwhere(~finite)]
                )
            root_local = row_list.index(root_row)
            local = {row: i for i, row in enumerate(row_list)}
            if hint and all(row in local for row in hint):
                hint = [local[row] for row in hint]
            else:
                hint = None
            result = self._shifts(sub, root_local, hint)
            corrections, settled = result.corrections, result.settled
            if corrections[root_local] != 0.0:
                # Pin x_root to exactly 0 (the nudged Bellman--Ford can
                # leave an epsilon-sized residue at the root); pinned
                # corrections are no longer the pass's distances.
                corrections = corrections - corrections[root_local]
                settled = False
            cycle_rows = (
                tuple(row_list[i] for i in result.cycle_rows)
                if result.cycle_rows is not None
                else None
            )
            return EngineShifts(
                corrections=corrections,
                a_max=result.a_max,
                cycle_rows=cycle_rows,
                settled=settled,
            )

    def keeps(
        self,
        sub: np.ndarray,
        root_local: int,
        solve: EngineShifts,
        cells: Tuple[np.ndarray, np.ndarray],
        old: np.ndarray,
        proof: Optional[KeepProof] = None,
    ) -> Optional[KeepProof]:
        """Whether SHIFTS on ``sub`` would serve ``solve`` again, exactly:
        a :class:`KeepProof` when it would, else ``None``.

        ``sub`` is a component's current ``ms~`` block (local indices,
        root at ``root_local``); ``solve`` is the settled solve of the
        earlier block, which differs from ``sub`` only at ``cells``
        (local ``(rows, cols)``), where it held the larger values
        ``old``.  ``proof`` is what the check returned for the earlier
        block, if there was one; with no changed cells the check proves
        ``solve`` on its own block.  Backends without an exact check
        answer ``None``, so the component is re-solved.
        """
        if not solve.settled:
            return None
        return self._keeps(sub, root_local, solve, cells, old, proof)

    def incremental_update(
        self,
        ms_matrix: np.ndarray,
        changes: Sequence[Tuple[int, int, float]],
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Closure after decreasing ``mls~`` entries ``(i, j, new_weight)``.

        Returns a *new* matrix (the input is never mutated) and the flat
        cells where it is below the input, ascending; or ``None`` when
        the backend has no incremental path and the caller should
        recompute from scratch.  Only weight *decreases* are supported --
        the online monotonicity guarantee (new observations only tighten
        estimates) makes that the only case that occurs.
        """
        _check_square(ms_matrix)
        with self.stats.stage("incremental_update"):
            return self._incremental(ms_matrix, list(changes))

    # ------------------------------------------------------------------
    # Backend hooks
    # ------------------------------------------------------------------

    @abstractmethod
    def _closure(self, mls_matrix: np.ndarray) -> np.ndarray:
        """Min-plus closure; raise ``InconsistentViewsError`` on neg. cycle."""

    @abstractmethod
    def _components(
        self, mls_matrix: np.ndarray, ms_matrix: np.ndarray
    ) -> List[List[int]]:
        """Row components, each sorted ascending, ordered by first row."""

    @abstractmethod
    def _shifts(
        self,
        sub: np.ndarray,
        root_local: int,
        hint: Optional[List[int]] = None,
    ) -> EngineShifts:
        """SHIFTS on an all-finite submatrix; cycle and hint in *local*
        indices (backends without a warm start ignore ``hint``)."""

    def _incremental(
        self, ms_matrix: np.ndarray, changes: List[Tuple[int, int, float]]
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Default: no incremental support."""
        return None

    def _keeps(
        self,
        sub: np.ndarray,
        root_local: int,
        solve: EngineShifts,
        cells: Tuple[np.ndarray, np.ndarray],
        old: np.ndarray,
        proof: Optional[KeepProof],
    ) -> Optional[KeepProof]:
        """Default: no exact check, so a changed block is re-solved."""
        return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def _check_square(matrix: np.ndarray) -> None:
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")


__all__ = ["EngineShifts", "KeepProof", "SyncEngine"]
