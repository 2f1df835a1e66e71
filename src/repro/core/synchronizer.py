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
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro._types import Edge, INF, ProcessorId, Time
from repro.core.estimates import (
    local_shift_estimates,
    partial_local_shift_estimates,
)
from repro.core.precision import rho_bar
from repro.delays.system import System
from repro.engine import DEFAULT_BACKEND, ProcessorIndex, create_engine
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
    ) -> SyncResult:
        """SHIFTS-only entry for callers that already hold the closure.

        ``mls_matrix``/``ms_matrix`` are row-indexed per :attr:`index`
        and keyword-only (positional passing raises ``TypeError``; see
        DESIGN.md section 9).  The online extension uses this to feed an
        incrementally-maintained ``ms~`` matrix straight into component
        decomposition + SHIFTS.  ``degraded`` threads an upstream
        degradation record through; this stage extends it with its own
        improvisations (root substitutions, isolated processors).

        ``previous`` is an earlier result of this synchronizer.  A
        component with the same processors, the same root and an
        identical ``ms~`` submatrix in ``previous`` is copied instead of
        re-solved: by Theorem 4.6 SHIFTS on a component reads only that
        submatrix, so the copy is exactly what re-solving would return.
        A component that must be re-solved gets, as a warm-start hint,
        the critical cycle of the highest-precision ``previous``
        component whose cycle lies inside it (also after a merge); the
        hint changes how SHIFTS finds the result, never the result.
        A ``previous`` from another synchronizer is ignored.
        """
        index = self._index
        engine = self._engine
        recorder = get_recorder()
        reusable = {}
        cycles: List[Tuple[Time, List[int]]] = []
        if previous is not None and (
            getattr(previous.ms_tilde, "index", None) is index
        ):
            reusable = {c.processors: c for c in previous.components}
            cycles = sorted(
                (
                    (c.precision, [index.row(p) for p in c.critical_cycle])
                    for c in previous.components
                    if c.critical_cycle is not None
                ),
                key=lambda entry: -entry[0],
            )
        corrections: Dict[ProcessorId, Time] = {}
        component_results: List[ComponentResult] = []
        root_substitutions: List[Tuple[ProcessorId, ProcessorId]] = []
        isolated: List[ProcessorId] = []
        reused = 0
        with recorder.span("pipeline.shifts"):
            for rows in engine.components(mls_matrix, ms_matrix):
                component = tuple(index.processor(r) for r in rows)
                root = self._root if self._root in component else component[0]
                if self._root is not None and root != self._root:
                    root_substitutions.append((self._root, root))
                if len(component) == 1:
                    if len(index) > 1:
                        isolated.append(root)
                    corrections[root] = 0.0
                    component_results.append(
                        ComponentResult(component, 0.0, None, root)
                    )
                    continue
                old = reusable.get(component)
                block = np.ix_(rows, rows)
                if old is not None and old.root == root and np.array_equal(
                    ms_matrix[block], previous.ms_tilde.matrix[block]
                ):
                    reused += 1
                    for p in component:
                        corrections[p] = previous.corrections[p]
                    component_results.append(old)
                    continue
                members = set(rows)
                hint = next(
                    (c for _, c in cycles if members.issuperset(c)), None
                )
                outcome = engine.shifts(
                    ms_matrix, rows=rows, root_row=index.row(root), hint=hint
                )
                for p, value in zip(component, outcome.corrections):
                    corrections[p] = float(value)
                cycle = (
                    tuple(index.processor(r) for r in outcome.cycle_rows)
                    if outcome.cycle_rows is not None
                    else None
                )
                component_results.append(
                    ComponentResult(component, outcome.a_max, cycle, root)
                )

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
        if degraded is not None:
            recorder.count("pipeline.degraded")
        recorder.set_gauge("pipeline.components", len(component_results))
        if corrections:
            recorder.set_gauge(
                "pipeline.correction_spread",
                max(corrections.values()) - min(corrections.values()),
            )
        if precision != INF:
            # A^max of the last fully-synchronized instance; inf (multiple
            # components) is left out so the gauge stays JSON-clean.
            recorder.set_gauge("pipeline.precision", precision)
        result = SyncResult(
            corrections=corrections,
            precision=precision,
            components=tuple(component_results),
            mls_tilde=PairView(mls_matrix, index),
            ms_tilde=PairView(ms_matrix, index),
            degraded=degraded,
        )
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
