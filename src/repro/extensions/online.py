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

from typing import Dict, Mapping, Optional, Set

import numpy as np

from repro._types import Edge, ProcessorId, Time
from repro.core.estimates import estimated_delays
from repro.core.global_estimates import InconsistentViewsError
from repro.core.synchronizer import ClockSynchronizer, SyncResult
from repro.delays.base import DirectionStats
from repro.delays.system import System
from repro.engine import DEFAULT_BACKEND
from repro.model.views import View
from repro.obs.recorder import get_recorder


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
    section 14).  The ``"python"`` reference engine has no incremental
    path and recomputes.

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
        """
        # Validate that the edge exists; raises UnknownLinkError otherwise.
        link = self._system.canonical_link(sender, receiver)
        edge = (sender, receiver)
        old = self._stats.get(edge, DirectionStats())
        new = DirectionStats(
            count=old.count + 1,
            min_delay=min(old.min_delay, estimated_delay),
            max_delay=max(old.max_delay, estimated_delay),
        )
        recorder = get_recorder()
        self._observations += 1
        if self._reject_outliers and self._is_outlier(link, edge, new):
            # Do not admit the sample: it would make the link's own
            # 2-cycle infeasible, which no honest observation can.
            self._outliers_rejected += 1
            self._last_admitted = False
            self._edge_last_seen[edge] = self._observations
            if recorder.enabled:
                recorder.count("online.observations")
                recorder.count("online.outliers_rejected")
            return False
        self._stats[edge] = new
        self._last_admitted = True
        changed = (
            new.min_delay != old.min_delay or new.max_delay != old.max_delay
        )
        self._edge_last_seen[edge] = self._observations
        if changed:
            self._cached = None
            self._dirty.add(link)
            self._edge_last_change[edge] = self._observations
        if recorder.enabled:
            recorder.count("online.observations")
            if changed:
                recorder.count("online.statistic_changes")
        return changed

    def _is_outlier(
        self, link: Edge, edge: Edge, tentative: DirectionStats
    ) -> bool:
        """Whether admitting ``tentative`` would break the link's 2-cycle.

        By Lemma 6.2 the per-link shift intervals derived from honest
        samples always satisfy ``mls~(p,q) + mls~(q,p) >= 0`` (the true
        offset lies in both).  A sample whose admission would drive the
        sum negative is provably corrupt *relative to the already
        accepted samples* and is rejected.  (If the corrupt sample
        arrives first, later honest traffic gets rejected instead --
        screening is symmetric; :meth:`drop_edge_stats` breaks the tie.)
        """
        other = self._stats.get((edge[1], edge[0]), DirectionStats())
        stats = (tentative, other) if link == edge else (other, tentative)
        mls_pq, mls_qp = self._system.link_mls(link, *stats)
        return mls_pq + mls_qp < -1e-9

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
        return self._stats.get((sender, receiver), DirectionStats())

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
        had = edge in self._stats
        self._stats.pop(edge, None)
        self._edge_last_change.pop(edge, None)
        self._edge_last_seen.pop(edge, None)
        if had:
            self._cached = None
            self._last_mls = None
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
            mls_tilde, mls_matrix = self._local_estimates()
            ms_matrix = None
            if self._last_ms_matrix is not None:
                ms_matrix = self._incremental_closure(mls_matrix)
            if ms_matrix is None:
                recorder.count("online.full_recomputes")
                ms_matrix = sync.engine.global_estimates(mls_matrix)
            else:
                recorder.count("online.incremental_repairs")
            result = sync.from_matrices(
                mls_tilde, mls_matrix=mls_matrix, ms_matrix=ms_matrix
            )
            # Commit only after success, so a failed refresh stays dirty.
            self._last_mls = mls_tilde
            self._dirty.clear()
            self._last_mls_matrix = mls_matrix
            self._last_ms_matrix = ms_matrix
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

    def _local_estimates(self):
        """``mls~`` as (dict, matrix), re-deriving only the dirty links."""
        index = self._synchronizer.index
        if self._last_mls is None:
            mls_tilde = self._system.mls_from_stats(self._stats)
            return mls_tilde, index.matrix(mls_tilde)
        mls_tilde = dict(self._last_mls)
        mls_matrix = self._last_mls_matrix.copy()
        for p, q in self._dirty:  # exact: each reads only its own stats
            forward, reverse = self._system.link_mls(
                (p, q), self.edge_stats(p, q), self.edge_stats(q, p)
            )
            mls_tilde[(p, q)] = mls_matrix[index.row(p), index.row(q)] = forward
            mls_tilde[(q, p)] = mls_matrix[index.row(q), index.row(p)] = reverse
        return mls_tilde, mls_matrix

    def _incremental_closure(
        self, mls_matrix: np.ndarray
    ) -> Optional[np.ndarray]:
        """Repair the cached ``ms~`` closure from the new ``mls~`` matrix.

        Returns ``None`` whenever the batch path must run instead: the
        engine has no incremental support, an estimate *loosened*
        (impossible under monotone ingestion, but guarded), or the update
        exposed an inconsistency (the batch path re-derives the error
        authoritatively).
        """
        old = self._last_mls_matrix
        if old is None or (mls_matrix > old).any():
            return None
        changed = np.argwhere(mls_matrix < old)
        if changed.size == 0:
            return self._last_ms_matrix
        changes = [
            (int(i), int(j), float(mls_matrix[i, j])) for i, j in changed
        ]
        try:
            return self._synchronizer.engine.incremental_update(
                self._last_ms_matrix, changes
            )
        except InconsistentViewsError:
            return None

    def precision(self) -> Time:
        """Current guaranteed precision (``inf`` until enough traffic)."""
        return self.result().precision

    def reset(self) -> None:
        """Forget all observations (e.g. after a topology/epoch change)."""
        self._stats: Dict[Edge, DirectionStats] = {}
        self._observations = 0
        self._cached: Optional[SyncResult] = None
        # The last refresh's mls~ and the canonical links changed since.
        self._last_mls: Optional[Dict[Edge, Time]] = None
        self._dirty: Set[Edge] = set()
        self._last_mls_matrix: Optional[np.ndarray] = None
        self._last_ms_matrix: Optional[np.ndarray] = None
        self._last_good: Optional[SyncResult] = None
        self._in_fallback = False
        self._outliers_rejected = 0
        self._fallbacks_served = 0
        self._last_admitted = False
        # Staleness bookkeeping: the observation ordinal at which each
        # directed edge last received a sample / last changed a statistic.
        self._edge_last_seen: Dict[Edge, int] = {}
        self._edge_last_change: Dict[Edge, int] = {}


__all__ = ["OnlineSynchronizer"]
