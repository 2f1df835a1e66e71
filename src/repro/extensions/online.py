"""Online synchronization: ingest observations as they happen.

The batch pipeline recomputes everything from complete views.  A real
deployment instead sees a *stream* of timestamped messages and wants
fresh corrections on demand.  Lemmas 6.2/6.5 make that cheap: for the
paper's models the per-link sufficient statistics are the extreme
estimated delays, which update in O(1) per observation.  The
:class:`OnlineSynchronizer` maintains them incrementally and re-runs
GLOBAL ESTIMATES + SHIFTS lazily, caching the result until the next
observation that actually changes a statistic.

Two useful consequences, both tested:

* *streaming == batch*: after ingesting an execution message-by-message
  the result equals the batch pipeline on the full views -- in real
  arithmetic; in floats it can differ in the last bits (measured on
  heterogeneous systems, never on the live service's lower-bound-only
  model; see :mod:`repro.live.replay`);
* *monotonicity*: precision never degrades as observations arrive
  (new extremes only shrink the admissible-shift intervals), so callers
  can safely publish corrections at any moment.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Set, Tuple

import numpy as np

from repro._types import INF, NEG_INF, Edge, ProcessorId, Time
from repro.core.errors import InconsistentViewsError
from repro.core.estimates import estimated_delays
from repro.core.synchronizer import ClockSynchronizer, SyncResult, _Changes
from repro.delays.base import DirectionStats, PairTiming
from repro.delays.system import System, UnknownLinkError
from repro.engine import DEFAULT_BACKEND
from repro.model.views import View
from repro.obs.recorder import get_recorder


_NONE_LOWERED = np.empty(0, dtype=np.intp)


def _same_bits(a: float, b: float) -> bool:
    """Whether two floats are the same bits (up to a nan's payload)."""
    if a != a:
        return b != b
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


class OnlineSynchronizer:
    """Incrementally synchronize a fixed system from streamed observations.

    Observations are *estimated delays* ``d~ = recv_clock - send_clock``
    per directed edge -- exactly what a receiver can compute locally from
    a timestamped message (Lemma 6.1).

    On the numpy engine (the default) a refresh after a few new
    observations does not redo GLOBAL ESTIMATES from scratch: since new
    extremes only *tighten* ``mls~``, the cached ``ms~`` closure is
    repaired by relaxing paths through the improved entries only.  The
    repair is exact in real arithmetic (see
    :mod:`repro.engine.numpy_backend`); in floats it can differ from a
    batch recompute in the last bits on heterogeneous systems (DESIGN.md
    section 14).  Nor does a refresh redo work the observation cannot
    change: it re-evaluates only the ``mls~`` values of links whose
    statistics moved, rewrites only the cells whose value changed, and
    hands its last good result to
    :meth:`~repro.core.synchronizer.ClockSynchronizer.from_matrices` as
    ``previous``, together with the ``ms~`` cells the repair lowered;
    that keeps the components and copies every component whose tight
    entries are untouched (the copy rule, DESIGN.md section 6), bit for
    bit what re-solving it would serve.  The ``"python"`` reference
    engine has no incremental path and recomputes, and copies only
    components whose ``ms~`` block is unchanged.

    ``backend`` is validated eagerly at construction (via
    :class:`~repro.core.synchronizer.ClockSynchronizer`), so a typo fails
    here rather than at the first :meth:`result` call.

    Robustness options (both off by default, preserving the exact
    ``streaming == batch`` contract):

    * ``reject_outliers=True`` screens each observation against the
      link's own delay assumption before admitting it: if the tentative
      statistics would make the link's estimated 2-cycle
      ``mls~(p,q) + mls~(q,p)`` negative -- impossible for honest
      samples by Lemma 6.2 soundness -- the observation is rejected
      (counted as ``online.outliers_rejected``).  A corrupted timestamp
      can therefore poison at most the *first* samples of a direction,
      never overturn an established consistent statistic.
    * ``fallback=True`` makes :meth:`result` degrade gracefully when the
      ingested statistics have become globally inconsistent (e.g. a
      corrupted timestamp slipped through on a fresh edge): instead of
      raising :class:`InconsistentViewsError`, the last successfully
      computed result is served (counted as ``online.fallbacks``), and
      the synchronizer keeps retrying on later queries -- a successful
      recompute after fallbacks counts ``online.recoveries``.  Use
      :meth:`drop_edge_stats` to discard a poisoned edge and recover
      for real.
    """

    def __init__(self, system: System, root: Optional[ProcessorId] = None,
                 backend: str = DEFAULT_BACKEND,
                 *, reject_outliers: bool = False,
                 fallback: bool = False) -> None:
        self._system = system
        self._synchronizer = ClockSynchronizer(
            system, root=root, backend=backend
        )
        self._terms = system.link_terms
        self._numbers = self._terms.numbers
        self._cells = self._terms.cells.tolist()
        self._reject_outliers = reject_outliers
        self._fallback = fallback
        self.reset()

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def observe(
        self, sender: ProcessorId, receiver: ProcessorId, estimated_delay: Time
    ) -> bool:
        """Record one message's estimated delay on edge ``sender -> receiver``.

        Returns ``True`` when the observation changed a sufficient
        statistic (i.e. the next :meth:`result` will actually recompute).
        Raises :class:`UnknownLinkError` for an edge that is no link and
        ``ValueError`` for a non-finite delay (no honest clock reads one,
        and a ``nan`` extreme would poison every later result); either
        way nothing is recorded.
        """
        edge = (sender, receiver)
        e = self._numbers.get(edge)
        if e is None:
            raise UnknownLinkError(f"no link between {sender!r} and {receiver!r}")
        if not math.isfinite(estimated_delay):
            raise ValueError(
                f"estimated delay on {sender!r} -> {receiver!r} is not "
                f"finite: {estimated_delay!r}"
            )
        old_min, old_max = self._dmin[e], self._dmax[e]
        new_min = min(old_min, estimated_delay)
        new_max = max(old_max, estimated_delay)
        recorder = get_recorder()
        self._observations += 1
        self._edge_last_seen[edge] = self._observations
        if self._reject_outliers and self._is_outlier(e, new_min, new_max):
            # Do not admit the sample: it would make the link's own
            # 2-cycle infeasible, which no honest observation can.
            self._outliers_rejected += 1
            self._last_admitted = False
            if recorder.enabled:
                recorder.count("online.observations")
                recorder.count("online.outliers_rejected")
            return False
        self._count[e] += 1
        self._dmin[e], self._dmax[e] = new_min, new_max
        self._last_admitted = True
        changed = bool(new_min != old_min or new_max != old_max)
        if changed:
            self._cached = None
            # Edge e's statistics feed its link's two mls~ values only.
            self._dirty.add(e & ~1)
        if recorder.enabled:
            recorder.count("online.observations")
            if changed:
                recorder.count("online.statistic_changes")
        return changed

    def _is_outlier(self, e: int, new_min: Time, new_max: Time) -> bool:
        """Whether admitting the tentative extremes of edge ``e`` would
        break its link's 2-cycle.

        By Lemma 6.2 the per-link shift intervals derived from honest
        samples always satisfy ``mls~(p,q) + mls~(q,p) >= 0`` (the true
        offset lies in both).  A sample whose admission would drive the
        sum negative is provably corrupt *relative to the already
        accepted samples* and is rejected.  (If the corrupt sample
        arrives first, later honest traffic gets rejected instead --
        screening is symmetric; :meth:`drop_edge_stats` breaks the tie.)
        """
        link = e & ~1  # the canonical orientation's edge number
        tentative = DirectionStats(self._count[e] + 1, new_min, new_max)
        other = self._direction(e ^ 1)
        timing = (
            PairTiming(tentative, other) if e == link
            else PairTiming(other, tentative)
        )
        assumption = self._system.assumptions[self._terms.edges[link]]
        mls_pq, mls_qp = assumption.mls_pair(timing)
        return mls_pq + mls_qp < -1e-9

    def _direction(self, e: int) -> DirectionStats:
        """Edge ``e``'s statistics as a :class:`DirectionStats`."""
        if not self._count[e]:
            return DirectionStats()
        return DirectionStats(
            int(self._count[e]), float(self._dmin[e]), float(self._dmax[e])
        )

    def observe_timestamps(
        self,
        sender: ProcessorId,
        receiver: ProcessorId,
        send_clock: Time,
        receive_clock: Time,
    ) -> bool:
        """Convenience: ingest raw clock timestamps of one message."""
        return self.observe(sender, receiver, receive_clock - send_clock)

    def ingest_views(self, views: Mapping[ProcessorId, View]) -> int:
        """Ingest every delivered message of a set of views; returns count."""
        total = 0
        for edge, delays in estimated_delays(views).items():
            for value in delays:
                self.observe(edge[0], edge[1], value)
                total += 1
        return total

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def synchronizer(self) -> ClockSynchronizer:
        """The underlying batch synchronizer (exposes engine/backend/index)."""
        return self._synchronizer

    @property
    def observation_count(self) -> int:
        """Total observations ingested since construction or reset."""
        return self._observations

    def edge_stats(self, sender: ProcessorId, receiver: ProcessorId) -> DirectionStats:
        """Current sufficient statistics of one directed edge."""
        e = self._numbers.get((sender, receiver))
        return DirectionStats() if e is None else self._direction(e)

    @property
    def outliers_rejected(self) -> int:
        """Observations rejected by the Lemma 6.2 soundness screen."""
        return self._outliers_rejected

    @property
    def last_observation_admitted(self) -> bool:
        """Whether the most recent :meth:`observe` admitted its sample.

        ``False`` right after construction/:meth:`reset` and after a
        screened-out outlier.  The live correction server keys its
        probe log on this: only admitted observations enter the log, so
        a ``from_views`` replay of any log prefix sees exactly the
        sample multiset the online statistics were built from.
        """
        return self._last_admitted

    @property
    def fallbacks_served(self) -> int:
        """Queries answered from the last-good result during inconsistency."""
        return self._fallbacks_served

    @property
    def in_fallback(self) -> bool:
        """Whether the most recent query had to serve the last-good result."""
        return self._in_fallback

    def edge_staleness(
        self, sender: ProcessorId, receiver: ProcessorId
    ) -> int:
        """Observations ingested since edge ``sender -> receiver`` last saw one.

        An edge that never received a sample is maximally stale: its
        staleness equals the total observation count.  Staleness is
        measured in *observation ordinals*, not wall time -- the online
        synchronizer has no clock of its own.
        """
        last = self._edge_last_seen.get((sender, receiver), 0)
        return self._observations - last

    def stale_edges(self, threshold: int) -> Dict[Edge, int]:
        """Directed edges whose staleness is >= ``threshold``.

        Covers every directed edge of the system, so silent links (down,
        partitioned, or simply idle) show up even though they never
        produced an observation.
        """
        out: Dict[Edge, int] = {}
        for p, q in self._system.directed_edges():
            staleness = self.edge_staleness(p, q)
            if staleness >= threshold:
                out[(p, q)] = staleness
        return out

    def drop_edge_stats(
        self, sender: ProcessorId, receiver: ProcessorId
    ) -> bool:
        """Discard the accumulated statistics of one directed edge.

        The recovery lever for a poisoned direction (corrupted
        timestamps that slipped past screening): dropping the edge
        *loosens* its estimate back to the unconstrained sentinel, so
        the next :meth:`result` recomputes from scratch -- the cached
        incremental closure is only valid under tightening and is
        invalidated here.  Returns whether anything was dropped.
        """
        edge = (sender, receiver)
        e = self._numbers.get(edge)
        had = e is not None and bool(self._count[e])
        self._edge_last_seen.pop(edge, None)
        if had:
            self._count[e], self._dmin[e], self._dmax[e] = 0, INF, NEG_INF
            self._cached = None
            self._last_mls_matrix = None
            self._last_ms_matrix = None
            get_recorder().count("online.edge_drops")
        return had

    def result(self) -> SyncResult:
        """Current optimal corrections (recomputed only when stale).

        With ``fallback=True`` a recompute that discovers globally
        inconsistent statistics serves the last successfully computed
        result instead of raising (the failure is NOT cached, so every
        later query retries the recompute).
        """
        recorder = get_recorder()
        if self._cached is None:
            try:
                self._cached = self._recompute()
            except InconsistentViewsError:
                if not self._fallback or self._last_good is None:
                    raise
                self._in_fallback = True
                self._fallbacks_served += 1
                if recorder.enabled:
                    recorder.count("online.fallbacks")
                    recorder.emit(
                        "online.fallback",
                        observations=self._observations,
                        sim_time=recorder.sim_time,
                    )
                return self._last_good
            if self._in_fallback:
                self._in_fallback = False
                recorder.count("online.recoveries")
            self._last_good = self._cached
        else:
            recorder.count("online.cache_hits")
        return self._cached

    def _recompute(self) -> SyncResult:
        sync = self._synchronizer
        recorder = get_recorder()
        with recorder.span("online.refresh"):
            update = None
            if self._last_ms_matrix is not None:
                update = self._incremental_update()
            if update is None:
                recorder.count("online.full_recomputes")
                mls_matrix = self._terms.matrix_of(
                    self._terms.mls(self._dmin, self._dmax)
                )
                ms_matrix = sync.engine.global_estimates(mls_matrix)
                changes = patched = None
            else:
                recorder.count("online.incremental_repairs")
                mls_matrix, ms_matrix, changes, patched = update
            try:
                result = sync.from_matrices(
                    mls_matrix=mls_matrix,
                    ms_matrix=ms_matrix,
                    previous=self._last_good,
                    _changes=changes,
                )
            except BaseException:
                if patched:
                    self._unpatch(patched)
                raise
            # Commit only after success: a failed refresh leaves the
            # closure cache at the last good matrices and keeps its links
            # dirty for the next one.
            self._last_mls_matrix = mls_matrix
            self._last_ms_matrix = ms_matrix
            self._dirty.clear()
            if recorder.enabled and recorder.observers:
                # from_matrices already emitted pipeline.result for the
                # monitors; this adds the streaming context (observation
                # count) for timeline/convergence subscribers.
                recorder.emit(
                    "online.result",
                    system=self._system,
                    result=result,
                    observations=self._observations,
                    sim_time=recorder.sim_time,
                )
            return result

    def _incremental_update(self) -> Optional[
        Tuple[np.ndarray, np.ndarray, _Changes, List[Tuple[int, float]]]
    ]:
        """The ``mls~`` and ``ms~`` matrices after the dirty links'
        observations, updated from the cached ones; what changed; and the
        ``mls~`` cells patched in place with their earlier values.

        Only the dirty links' two edges are re-evaluated, and only the
        cells of edges whose value changed bitwise are rewritten, so the
        matrix equals a fresh ``LinkTerms.matrix`` bit for bit.  The
        cached closure is repaired through the edges that tightened, in
        row-major cell order.  Returns ``None`` whenever the batch path
        must run instead: the engine has no incremental support, an
        estimate *loosened* (impossible under monotone ingestion, but
        guarded), or the update exposed an inconsistency (the batch path
        re-derives the error authoritatively).
        """
        edges = sorted(e for link in self._dirty for e in (link, link | 1))
        values = self._terms.mls_of(edges, self._dmin, self._dmax)
        mls_matrix = self._last_mls_matrix
        flat = mls_matrix.reshape(-1)
        patched: List[Tuple[int, float]] = []
        tighter: List[Tuple[int, float]] = []
        grew = False
        for e, new in zip(edges, values):
            cell = self._cells[e]
            was = flat.item(cell)
            if _same_bits(new, was):
                continue
            if new > was:
                self._unpatch(patched)
                return None
            patched.append((cell, was))
            flat[cell] = new
            grew = grew or was == INF
            if new < was:
                tighter.append((cell, new))
        ms_matrix, lowered = self._last_ms_matrix, _NONE_LOWERED
        if tighter:
            n = len(mls_matrix)
            changes = [
                (*divmod(cell, n), new) for cell, new in sorted(tighter)
            ]
            try:
                repair = self._synchronizer.engine.incremental_update(
                    ms_matrix, changes
                )
            except InconsistentViewsError:
                repair = None
            if repair is None:
                self._unpatch(patched)
                return None
            ms_matrix, lowered = repair
        return mls_matrix, ms_matrix, _Changes(lowered, not grew), patched

    def _unpatch(self, patched: List[Tuple[int, float]]) -> None:
        """Restore the cached ``mls~`` cells a failed refresh rewrote."""
        flat = self._last_mls_matrix.reshape(-1)
        for cell, was in patched:
            flat[cell] = was

    def precision(self) -> Time:
        """Current guaranteed precision (``inf`` until enough traffic)."""
        return self.result().precision

    def reset(self) -> None:
        """Forget all observations (e.g. after a topology/epoch change)."""
        # Per directed edge, numbered as in the system's LinkTerms: the
        # admitted sample count and the d~min/d~max extremes (silent:
        # +inf/-inf), which is all Lemmas 6.2/6.5 read.
        edges = len(self._terms.edges)
        self._count = np.zeros(edges, dtype=np.int64)
        self._dmin = np.full(edges, INF)
        self._dmax = np.full(edges, NEG_INF)
        self._observations = 0
        self._cached: Optional[SyncResult] = None
        # Links (numbered by their canonical edge) whose statistics
        # changed since the last committed refresh.
        self._dirty: Set[int] = set()
        # The last refresh's two matrices.
        self._last_mls_matrix: Optional[np.ndarray] = None
        self._last_ms_matrix: Optional[np.ndarray] = None
        self._last_good: Optional[SyncResult] = None
        self._in_fallback = False
        self._outliers_rejected = 0
        self._fallbacks_served = 0
        self._last_admitted = False
        # Staleness bookkeeping: the observation ordinal at which each
        # directed edge last received a sample.
        self._edge_last_seen: Dict[Edge, int] = {}


__all__ = ["OnlineSynchronizer"]
