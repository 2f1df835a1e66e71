"""High-level facade: views in, optimal corrections out.

:class:`ClockSynchronizer` composes the paper's pipeline:

    views --(Lemma 6.1 + Section 6 formulas)--> mls~
          --(GLOBAL ESTIMATES, Thm 5.5)-------> ms~
          --(SHIFTS, Thms 4.4/4.6)------------> corrections + A^max

It also handles the situation the paper's stronger optimality notion was
invented for: executions where some pair's maximal shift is unbounded
(e.g. an unbounded link that carried no traffic).  The worst-case
precision is then genuinely infinite, but the *synchronization components*
-- maximal processor sets with finite mutual shift estimates -- can each
still be synchronized optimally, and the result reports them separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

import numpy as np

from repro._types import Edge, INF, ProcessorId, Time
from repro.core.estimates import (
    local_shift_estimates,
    partial_local_shift_estimates,
)
from repro.core.precision import rho_bar
from repro.delays.system import System
from repro.engine import (
    DEFAULT_BACKEND,
    EngineShifts,
    ProcessorIndex,
    create_engine,
)
from repro.engine.base import KeepProof
from repro.engine.index import PairView
from repro.model.execution import Execution
from repro.model.views import View
from repro.obs.recorder import get_recorder


@dataclass(frozen=True)
class ComponentResult:
    """Optimal synchronization of one synchronization component."""

    processors: Tuple[ProcessorId, ...]
    precision: Time
    critical_cycle: Optional[Tuple[ProcessorId, ...]]
    root: ProcessorId


@dataclass(frozen=True)
class DegradedResult:
    """Structured record of how a pipeline run degraded, never an exception.

    Attached to :attr:`SyncResult.degraded` when the inputs were
    incomplete (missing views, orphan receives) or the decomposition had
    to improvise (requested root outside a component, processors left in
    singleton components).  Every degradation is *conservative*: skipped
    samples and missing views only loosen estimates toward the ``inf``
    sentinel, they never tighten a bound that honest data would not
    support (Lemma 6.2 soundness).
    """

    #: Processors whose view was unavailable (crashed / partitioned).
    missing_views: Tuple[ProcessorId, ...] = ()
    #: Receives whose matching send appeared in no available view.
    orphan_receives: int = 0
    #: Components where the requested root was absent, as
    #: ``(requested_root, substitute_root)`` pairs.
    root_substitutions: Tuple[Tuple[ProcessorId, ProcessorId], ...] = ()
    #: Processors synchronized only with themselves (no finite mutual
    #: shift estimate connects them to anyone).
    isolated_processors: Tuple[ProcessorId, ...] = ()

    @property
    def is_degraded(self) -> bool:
        """Whether any degradation actually occurred."""
        return bool(
            self.missing_views
            or self.orphan_receives
            or self.root_substitutions
            or self.isolated_processors
        )

    def lines(self) -> Tuple[str, ...]:
        """Human-readable degradation report (one line per phenomenon)."""
        out = []
        if self.missing_views:
            out.append(
                "missing views: "
                + ", ".join(repr(p) for p in self.missing_views)
            )
        if self.orphan_receives:
            out.append(f"orphan receives skipped: {self.orphan_receives}")
        for requested, used in self.root_substitutions:
            out.append(f"root {requested!r} unavailable; used {used!r}")
        if self.isolated_processors:
            out.append(
                "isolated processors: "
                + ", ".join(repr(p) for p in self.isolated_processors)
            )
        return tuple(out)


@dataclass(frozen=True)
class SyncResult:
    """Everything the pipeline produced for one set of views.

    ``precision`` is the guaranteed worst-case corrected-clock discrepancy
    over all admissible executions equivalent to the observed one --
    ``A^max`` when the system is one component, ``inf`` otherwise.  By
    Theorems 4.4/4.6 it is also the best any correction function can
    guarantee, so it doubles as the instance's optimality certificate
    (witnessed by ``components[i].critical_cycle``).

    ``mls_tilde`` and ``ms_tilde`` are read-only views over the ``mls~``
    matrix (``+inf`` off the links, 0 on the diagonal) and the closure
    matrix (:class:`~repro.engine.PairView`); ``dict()`` materialises
    them.
    """

    corrections: Dict[ProcessorId, Time]
    precision: Time
    components: Tuple[ComponentResult, ...]
    mls_tilde: Mapping[Edge, Time]
    ms_tilde: Mapping[Edge, Time]
    #: Degradation record for runs over incomplete inputs (``None`` for
    #: clean runs; see :class:`DegradedResult`).
    degraded: Optional[DegradedResult] = None

    @property
    def is_fully_synchronized(self) -> bool:
        """Whether a single finite precision covers every processor pair."""
        return len(self.components) == 1

    @property
    def is_degraded(self) -> bool:
        """Whether this result was produced in degraded mode."""
        return self.degraded is not None and self.degraded.is_degraded

    def corrected_clock(self, p: ProcessorId, clock_time: Time) -> Time:
        """The logical clock of ``p``: local clock plus correction."""
        return clock_time + self.corrections[p]

    def pair_precision(self, p: ProcessorId, q: ProcessorId) -> Time:
        """Guaranteed bound on ``|corrected_p - corrected_q|`` specifically.

        ``max(ms~(p,q) - x_p + x_q, ms~(q,p) - x_q + x_p)`` -- often much
        tighter than the global ``precision`` for nearby processors.
        """
        x = self.corrections
        forward = self.ms_tilde.get((p, q), INF)
        backward = self.ms_tilde.get((q, p), INF)
        return max(forward - x[p] + x[q], backward - x[q] + x[p])

    def offset_interval(
        self, p: ProcessorId, q: ProcessorId
    ) -> Tuple[Time, Time]:
        """The exact feasible interval of the true offset ``S_p - S_q``.

        Over all admissible executions equivalent to the observed one,
        the start-time difference ranges over precisely

            [ -ms~(q, p),  ms~(p, q) ]

        (shift ``q`` by up to ``ms(p,q)`` one way, ``p`` by up to
        ``ms(q,p)`` the other; translating into estimated coordinates
        cancels the unknown ``S`` terms).  This is the
        Halpern--Megiddo--Munshi "tightest bound on a pairwise offset",
        recovered here from the shortest-path estimates.  Its width is
        the pair's two-cycle weight, and :meth:`pair_precision` is
        exactly the worst distance from the corrections' implied estimate
        ``x_p - x_q`` to the interval's endpoints.  (Note the implied
        estimate itself may fall *outside* the interval: optimal
        corrections balance global cycles, not per-pair midpoints.)
        """
        low = -self.ms_tilde.get((q, p), INF)
        high = self.ms_tilde.get((p, q), INF)
        return (low, high)

    def guaranteed_rho_bar(self) -> Time:
        """Re-derive ``rho_bar`` of the corrections (equals ``precision``)."""
        return rho_bar(self.ms_tilde, self.corrections)


class _Solved(NamedTuple):
    """How one component of a result was last solved.

    ``from_matrices`` attaches one per component to each result, as the
    private attribute ``_solved``, so a later call with ``previous=``
    can reuse the components and check the copy rule without re-deriving
    rows or corrections.  Results built any other way (``replace``) have
    none and take the general path.
    """

    rows: List[int]
    #: The engine's solve in row space; ``None`` for a singleton.
    shifts: Optional[EngineShifts]
    #: What the copy rule last proved about ``shifts`` on this block
    #: (its tolerance scale and a realizing parent tree), so the next
    #: check reads only the changed entries; ``None`` when nothing was
    #: proved (a solve without ``previous``, or an unsettled one).
    proof: Optional[KeepProof] = None


_NO_VALUES = np.empty(0)
_NO_CELLS = (np.empty(0, dtype=np.intp),) * 2


class _Changes(NamedTuple):
    """What an online refresh already knows changed since ``previous``.

    Handed to ``from_matrices`` as the private ``_changes`` keyword, so
    it need not compare whole matrices to find out.
    """

    #: Flat cells where ``ms~`` is below ``previous``'s, ascending.
    ms_cells: np.ndarray
    #: Whether ``mls~`` is ``+inf`` exactly where ``previous``'s was.
    mls_layout: bool


class _Delta:
    """Where an ``ms~`` matrix differs from an earlier one, cell by cell."""

    __slots__ = (
        "n", "rows", "cols", "before", "after", "same_finiteness",
        "unchanged",
    )

    def __init__(
        self,
        ms_matrix: np.ndarray,
        earlier: np.ndarray,
        cells: Optional[np.ndarray] = None,
    ):
        """``cells``, when known, are the changed flat cells; else the
        two matrices are compared."""
        self.n = len(earlier)
        if cells is None:
            cells = np.flatnonzero(ms_matrix != earlier)
        self.rows, self.cols = np.divmod(cells, self.n)
        #: The earlier and the current values of the changed cells.
        self.before = earlier.ravel()[cells]
        self.after = ms_matrix.ravel()[cells]
        self.unchanged = not cells.size
        self.same_finiteness = self.unchanged or not np.count_nonzero(
            np.isfinite(self.after) != np.isfinite(self.before)
        )

    def within(
        self, rows: List[int]
    ) -> Tuple[Tuple[np.ndarray, np.ndarray], np.ndarray, np.ndarray]:
        """The changed cells inside the ``rows`` block, in the block's
        local indices, and their earlier and current values."""
        if len(rows) == self.n:
            return (self.rows, self.cols), self.before, self.after
        local = np.full(self.n, -1)
        local[rows] = np.arange(len(rows))
        i, j = local[self.rows], local[self.cols]
        inside = (i >= 0) & (j >= 0)
        return (
            (i[inside], j[inside]), self.before[inside], self.after[inside]
        )


def _block(ms_matrix: np.ndarray, rows: List[int]) -> np.ndarray:
    """The ``rows`` block of ``ms_matrix`` (the matrix itself when the
    block is all of it)."""
    if len(rows) == len(ms_matrix):
        return ms_matrix
    return ms_matrix[np.ix_(rows, rows)]


def _hint_cycles(
    previous: Optional[SyncResult], index: ProcessorIndex
) -> List[Tuple[Time, List[int]]]:
    """``previous``'s critical cycles as rows, highest precision first."""
    if previous is None:
        return []
    return sorted(
        (
            (c.precision, [index.row(p) for p in c.critical_cycle])
            for c in previous.components
            if c.critical_cycle is not None
        ),
        key=lambda entry: -entry[0],
    )


class ClockSynchronizer:
    """Computes optimal corrections for a fixed system ``(G, A)``.

    The synchronizer is stateless across calls; each call processes one
    set of views (one execution) independently.  ``backend`` names the
    matrix engine: ``"numpy"`` (the default, at every system size) or
    ``"python"``, the scalar reference oracle.  It is validated
    eagerly, so a typo fails here rather than deep inside the first
    synchronization.

    Options (``root``, ``backend``) are keyword-only (DESIGN.md section
    9); passing them positionally raises ``TypeError``.
    """

    def __init__(
        self,
        system: System,
        *,
        root: Optional[ProcessorId] = None,
        backend: str = DEFAULT_BACKEND,
    ):
        self._system = system
        if root is not None and root not in system.processors:
            raise ValueError(f"root {root!r} is not a processor of the system")
        self._root = root
        self._index = ProcessorIndex(system.processors)
        self._engine = create_engine(backend)

    @property
    def system(self) -> System:
        """The system ``(G, A)`` this synchronizer was built for."""
        return self._system

    @property
    def backend(self) -> str:
        """Name of the matrix engine in use."""
        return self._engine.name

    @property
    def engine(self):
        """The matrix engine (exposes per-stage ``stats``)."""
        return self._engine

    @property
    def index(self) -> ProcessorIndex:
        """The processor <-> matrix-row mapping of this synchronizer."""
        return self._index

    def from_views(
        self,
        views: Mapping[ProcessorId, View],
        *,
        allow_partial: bool = False,
    ) -> SyncResult:
        """Run the full pipeline on one execution's views.

        With ``allow_partial=True`` an incomplete set of views (crashed
        or partitioned processors) degrades gracefully instead of
        raising: missing processors contribute no samples, receives
        whose send was lost with a missing view are skipped, and the
        result carries a :class:`DegradedResult` describing exactly what
        was missing.  Estimates only loosen (toward the ``inf``
        sentinel), so degraded corrections remain sound for the
        processors that *are* connected by surviving data.
        """
        missing = tuple(
            sorted(set(self._system.processors) - set(views), key=repr)
        )
        if missing and not allow_partial:
            raise ValueError(
                f"views missing for processors: {list(missing)}"
            )
        recorder = get_recorder()
        with recorder.span(
            "pipeline.from_views",
            processors=len(self._index),
            backend=self._engine.name,
        ):
            degraded: Optional[DegradedResult] = None
            with recorder.span("pipeline.local_estimates"):
                if allow_partial:
                    mls_tilde, orphans = partial_local_shift_estimates(
                        self._system, views
                    )
                    if missing or orphans:
                        degraded = DegradedResult(
                            missing_views=missing,
                            orphan_receives=orphans,
                        )
                else:
                    mls_tilde = local_shift_estimates(self._system, views)
            return self.from_local_estimates(mls_tilde, degraded=degraded)

    def from_local_estimates(
        self,
        mls_tilde: Mapping[Tuple[ProcessorId, ProcessorId], Time],
        *,
        degraded: Optional[DegradedResult] = None,
    ) -> SyncResult:
        """Run GLOBAL ESTIMATES + SHIFTS on precomputed ``mls~`` values.

        Exposed separately so distributed front-ends (see
        :mod:`repro.extensions.leader`) can ship local estimates to a
        leader instead of whole views.  ``degraded`` threads an upstream
        degradation record through to the result.
        """
        with get_recorder().span("pipeline.global_estimates"):
            mls_matrix = self._index.matrix(mls_tilde)
            ms_matrix = self._engine.global_estimates(mls_matrix)
        return self.from_matrices(
            mls_matrix=mls_matrix,
            ms_matrix=ms_matrix,
            degraded=degraded,
        )

    def from_matrices(
        self,
        *,
        mls_matrix,
        ms_matrix,
        degraded: Optional[DegradedResult] = None,
        previous: Optional[SyncResult] = None,
        _changes: Optional[_Changes] = None,
    ) -> SyncResult:
        """SHIFTS-only entry for callers that already hold the closure.

        ``mls_matrix``/``ms_matrix`` are row-indexed per :attr:`index`
        and keyword-only (positional passing raises ``TypeError``; see
        DESIGN.md section 9).  The online extension uses this to feed an
        incrementally-maintained ``ms~`` matrix straight into component
        decomposition + SHIFTS.  ``degraded`` threads an upstream
        degradation record through; this stage extends it with its own
        improvisations (root substitutions, isolated processors).

        ``previous`` is an earlier result of this synchronizer (one from
        another synchronizer is ignored).  When no ``ms~`` entry changed
        finiteness since, its components are taken as they are.  A
        component with the same processors and root in ``previous`` is
        copied instead of re-solved when its ``ms~`` submatrix is
        identical (by Theorem 4.6 SHIFTS on a component reads only that
        submatrix), or when the submatrix only *decreased* in entries
        that were slack under the previous corrections and the engine
        proves the previous answer is still exactly what SHIFTS would
        serve (:meth:`~repro.engine.SyncEngine.keeps`; the copy rule of
        DESIGN.md section 6).  Either copy is bit-identical to a warm
        re-solve.  A component that must be re-solved gets, as a
        warm-start hint, the critical cycle of the highest-precision
        ``previous`` component whose cycle lies inside it (also after a
        merge); the hint changes how SHIFTS finds the result, never the
        result.  (``_changes`` is private to online refreshes: what they
        already know changed since ``previous``.)
        """
        index = self._index
        engine = self._engine
        recorder = get_recorder()
        n = len(index)
        prior = previous
        if getattr(getattr(prior, "ms_tilde", None), "index", None) is not index:
            prior = None
        # Per component of ``prior``, its rows and its last engine solve.
        records = getattr(prior, "_solved", None)
        layout = delta = None
        if prior is not None:
            delta = _Delta(
                ms_matrix, prior.ms_tilde.matrix,
                None if _changes is None else _changes.ms_cells,
            )
            if records is not None and delta.same_finiteness:
                # Same finiteness, same components (mutual finiteness).
                layout = [
                    (record.rows, c.processors, (c, record))
                    for c, record in zip(prior.components, records)
                ]
        if layout is None:
            olds = {}
            if prior is not None:
                olds = {
                    c.processors: (c, record) for c, record in zip(
                        prior.components, records or repeat(None)
                    )
                }
            layout = []
            for rows in engine.components(mls_matrix, ms_matrix):
                component = tuple(index.processor(r) for r in rows)
                layout.append((rows, component, olds.get(component)))
        hints = None
        corrections: Dict[ProcessorId, Time] = {}
        component_results: List[ComponentResult] = []
        solved: List[_Solved] = []
        root_substitutions: List[Tuple[ProcessorId, ProcessorId]] = []
        isolated: List[ProcessorId] = []
        reused = reused_slack = 0
        with recorder.span("pipeline.shifts"):
            for rows, component, old in layout:
                root = component[0]
                if self._root is not None:
                    if self._root in component:
                        root = self._root
                    else:
                        root_substitutions.append((self._root, root))
                if len(component) == 1:
                    if n > 1:
                        isolated.append(root)
                    corrections[root] = 0.0
                    if old is None or old[1] is None:
                        old = ComponentResult(component, 0.0, None, root), (
                            _Solved(rows, None)
                        )
                    component_results.append(old[0])
                    solved.append(old[1])
                    continue
                root_local = 0 if root is component[0] else (
                    component.index(root)
                )
                if old is not None and old[0].root == root:
                    kept, record = old
                    local, before, after = delta.within(rows)
                    copy = not len(before)
                    last = record.shifts if record is not None else None
                    if not copy and last is not None and (after < before).all():
                        # The copy rule: decreases only, then the engine's
                        # exact check (DESIGN.md section 6).
                        proof = engine.keeps(
                            _block(ms_matrix, rows), root_local, last, local,
                            before, record.proof,
                        )
                        if proof is not None:
                            copy, reused_slack = True, reused_slack + 1
                            record = record._replace(proof=proof)
                    if copy:
                        reused += 1
                        if len(layout) == 1:
                            corrections = dict(prior.corrections)
                        else:
                            prior_corrections = prior.corrections
                            for p in component:
                                corrections[p] = prior_corrections[p]
                        component_results.append(kept)
                        solved.append(
                            record if record is not None
                            else _Solved(rows, None)
                        )
                        continue
                if hints is None:
                    hints = _hint_cycles(prior, index)
                members = set(rows)
                hint = next(
                    (c for _, c in hints if members.issuperset(c)), None
                )
                outcome = engine.shifts(
                    ms_matrix, rows=rows, root_row=rows[root_local], hint=hint
                )
                corrections.update(zip(component, outcome.corrections.tolist()))
                cycle = (
                    tuple(index.processor(r) for r in outcome.cycle_rows)
                    if outcome.cycle_rows is not None
                    else None
                )
                component_results.append(
                    ComponentResult(component, outcome.a_max, cycle, root)
                )
                proof = None
                if prior is not None:
                    # A stream will check the copy rule on this block
                    # next: prove the solve now, off the copy's path.
                    proof = engine.keeps(
                        _block(ms_matrix, rows), root_local, outcome,
                        _NO_CELLS, _NO_VALUES,
                    )
                solved.append(_Solved(rows, outcome, proof))

        if degraded is not None or root_substitutions or isolated:
            base = degraded if degraded is not None else DegradedResult()
            degraded = DegradedResult(
                missing_views=base.missing_views,
                orphan_receives=base.orphan_receives,
                root_substitutions=tuple(root_substitutions),
                isolated_processors=tuple(isolated),
            )
            if not degraded.is_degraded:
                degraded = None

        if len(component_results) == 1:
            precision = component_results[0].precision
        else:
            precision = INF
        recorder.count("pipeline.syncs")
        if reused:
            recorder.count("pipeline.components_reused", reused)
        if reused_slack:
            recorder.count("pipeline.components_reused_slack", reused_slack)
        if degraded is not None:
            recorder.count("pipeline.degraded")
        recorder.set_gauge("pipeline.components", len(component_results))
        if recorder.enabled and corrections:
            recorder.set_gauge(
                "pipeline.correction_spread",
                max(corrections.values()) - min(corrections.values()),
            )
        if precision != INF:
            # A^max of the last fully-synchronized instance; inf (multiple
            # components) is left out so the gauge stays JSON-clean.
            recorder.set_gauge("pipeline.precision", precision)
        mls_tilde = None
        if _changes is not None and _changes.mls_layout and prior is not None:
            mls_tilde = prior.mls_tilde.regathered(mls_matrix)
        result = SyncResult(
            corrections=corrections,
            precision=precision,
            components=tuple(component_results),
            mls_tilde=(
                PairView.sparse(mls_matrix, index) if mls_tilde is None
                else mls_tilde
            ),
            ms_tilde=(
                prior.ms_tilde if delta is not None and delta.unchanged
                # An online refresh hands over a matrix nobody else holds.
                else PairView.adopt(ms_matrix, index) if _changes is not None
                else PairView(ms_matrix, index)
            ),
            degraded=degraded,
        )
        # Not a field, so equality and repr ignore it (see _Solved).
        object.__setattr__(result, "_solved", tuple(solved))
        if recorder.enabled and recorder.observers:
            # Every pipeline run -- batch or an online refresh -- passes
            # through here, so this one emit lets invariant monitors (see
            # repro.obs.monitor) check every result ever produced.
            recorder.emit(
                "pipeline.result",
                system=self._system,
                result=result,
                sim_time=recorder.sim_time,
            )
        return result

    def from_execution(self, alpha: Execution) -> SyncResult:
        """Convenience: extract views from a recorded execution and run.

        Only the views are consulted -- the synchronizer never touches the
        execution's real times, preserving Claim 3.1.
        """
        return self.from_views(alpha.views())


__all__ = [
    "ComponentResult",
    "DegradedResult",
    "SyncResult",
    "ClockSynchronizer",
]
