"""Estimated delays and local-shift estimates from views (Lemma 6.1).

Processors cannot observe real time, so the actual delay ``d(m)`` of a
message is unknowable from views.  What *is* computable is the estimated
delay

    d~(m) = (clock time of receipt at q) - (clock time of sending at p)
          = (t_r - S_q) - (t_s - S_p)
          = d(m) + S_p - S_q,

i.e. the true delay translated by the (unknown, constant) difference of
start times.  Lemma 6.1 observes that this suffices: all the per-model
local-shift formulas of Section 6 are translation-equivariant, so feeding
them estimated delays yields exactly the estimated maximal local shifts
``mls~(p,q) = mls(p,q) + S_p - S_q`` (Corollaries 6.3 and 6.6) that
GLOBAL ESTIMATES and SHIFTS need.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Mapping, NamedTuple, Tuple

import numpy as np

from repro._types import INF, NEG_INF, Edge, ProcessorId, Time
from repro.delays.system import System
from repro.model.views import View


class IncompleteViewsError(ValueError):
    """The views do not contain both endpoints of some delivered message."""


class _Matched(NamedTuple):
    """Every matched receive of a set of views, in receive order.

    ``senders``/``receivers`` index ``processors`` (the views' keys, in
    mapping order) and ``delays`` holds ``d~ = recv_clock - send_clock``.
    """

    processors: List[ProcessorId]
    senders: np.ndarray
    receivers: np.ndarray
    delays: np.ndarray
    orphans: int


def _match(views: Mapping[ProcessorId, View], strict: bool) -> _Matched:
    """The one uid matcher behind every function of this module.

    It concatenates the views' message columns (:attr:`View.columns`);
    a uid sent again overwrites the earlier send (sender included), and
    a uid received twice by one view keeps its first receive (duplicate
    delivery, see :meth:`View.receive_clock_times`).  A receive whose
    uid no view sent is an orphan: ``strict`` raises
    :class:`IncompleteViewsError` for the first one, otherwise they are
    counted and skipped.
    """
    processors = list(views)
    send_uids, send_clocks, recv_uids, recv_clocks = tuple(
        zip(*[view.columns for view in views.values()])
    ) or ((),) * 4
    positions = np.arange(len(processors))
    send_view = np.repeat(positions, list(map(len, send_uids)))
    recv_view = np.repeat(positions, list(map(len, recv_uids)))
    send_uid, send_clock, recv_uid, recv_clock = (
        np.fromiter(chain.from_iterable(column), dtype, len(owner))
        for column, dtype, owner in (
            (send_uids, np.int64, send_view),
            (send_clocks, float, send_view),
            (recv_uids, np.int64, recv_view),
            (recv_clocks, float, recv_view),
        )
    )

    # The last send of each uid, as sorted unique uids.
    order = np.argsort(send_uid, kind="stable")
    sorted_uids = send_uid[order]
    last = np.ones(len(order), dtype=bool)
    last[:-1] = sorted_uids[1:] != sorted_uids[:-1]
    send_at = order[last]
    uids = send_uid[send_at]

    # Receives in uid order: a stable sort keeps one view's copies of a
    # uid adjacent and in receive order, so a repeat of its predecessor
    # is a duplicate delivery.  ``sent`` holds each receive's send, -1
    # for an orphan and -2 for a duplicate.
    order = np.argsort(recv_uid, kind="stable")
    by_uid, view_by_uid = recv_uid[order], recv_view[order]
    at = np.searchsorted(uids, by_uid)
    found = at < len(uids)
    found[found] = uids[at[found]] == by_uid[found]
    by_uid_sent = np.full(len(order), -1)
    by_uid_sent[found] = send_at[at[found]]
    by_uid_sent[1:][
        (by_uid[1:] == by_uid[:-1]) & (view_by_uid[1:] == view_by_uid[:-1])
    ] = -2
    sent = np.empty_like(by_uid_sent)
    sent[order] = by_uid_sent

    orphan = sent == -1
    if strict and orphan.any():
        i = int(np.argmax(orphan))
        raise IncompleteViewsError(
            f"{processors[recv_view[i]]!r} received message "
            f"{int(recv_uid[i])} but no view contains its send"
        )
    matched = np.flatnonzero(sent >= 0)
    sends = sent[matched]
    return _Matched(
        processors,
        send_view[sends],
        recv_view[matched],
        recv_clock[matched] - send_clock[sends],
        int(np.count_nonzero(orphan)),
    )


def _delay_lists(matched: _Matched) -> Dict[Edge, List[Time]]:
    processors = matched.processors
    out: Dict[Edge, List[Time]] = {}
    for p, q, delay in zip(
        matched.senders.tolist(),
        matched.receivers.tolist(),
        matched.delays.tolist(),
    ):
        out.setdefault((processors[p], processors[q]), []).append(delay)
    return out


def _link_estimates(system: System, matched: _Matched) -> Dict[Edge, Time]:
    """``mls~`` of every directed edge: per-edge ``d~min``/``d~max`` by
    one min/max reduce, then the system's compiled Section 6 terms."""
    terms = system.link_terms
    edges = terms.edge_numbers(
        matched.processors, matched.senders, matched.receivers
    )
    on_link = edges >= 0
    edges, delays = edges[on_link], matched.delays[on_link]
    dmin = np.full(len(terms.edges), INF)
    dmax = np.full(len(terms.edges), NEG_INF)
    np.minimum.at(dmin, edges, delays)
    np.maximum.at(dmax, edges, delays)
    return dict(zip(terms.edges, terms.mls(dmin, dmax).tolist()))


def estimated_delays(
    views: Mapping[ProcessorId, View]
) -> Dict[Edge, List[Time]]:
    """Per-directed-edge estimated delays, computed purely from views.

    Matches each received message's receive clock time (at the receiver's
    view) with its send clock time (at the sender's view) by message uid.
    Raises :class:`IncompleteViewsError` if a received message's sender
    view is missing or does not contain the send -- that would mean the
    views do not come from one execution.
    """
    return _delay_lists(_match(views, strict=True))


def partial_estimated_delays(
    views: Mapping[ProcessorId, View]
) -> Tuple[Dict[Edge, List[Time]], int]:
    """Estimated delays from a possibly *incomplete* set of views.

    Like :func:`estimated_delays`, but a receive whose send appears in
    no view (an *orphan* -- its sender's view was lost, e.g. a crashed
    or partitioned processor) is skipped instead of raising.  Returns
    ``(delays, orphan_count)``; each skipped observation widens the
    resulting estimates (fewer samples -> looser ``mls~``), which is
    sound: degraded answers are conservative, never wrong (Lemma 6.2
    direction "honest samples only tighten").
    """
    matched = _match(views, strict=False)
    return _delay_lists(matched), matched.orphans


def local_shift_estimates(
    system: System, views: Mapping[ProcessorId, View]
) -> Dict[Edge, Time]:
    """``mls~(p, q)`` for every directed edge of the system.

    This is the per-link, views-only computation that the paper's
    modularity argument isolates: each link's estimate depends only on the
    two endpoint views and the link's own delay assumption.  It equals
    ``system.mls_from_delays(estimated_delays(views))``, computed on
    arrays; messages on non-links and views of other processors are
    ignored.
    """
    return _link_estimates(system, _match(views, strict=True))


def partial_local_shift_estimates(
    system: System, views: Mapping[ProcessorId, View]
) -> Tuple[Dict[Edge, Time], int]:
    """:func:`local_shift_estimates` over possibly incomplete views,
    skipping orphan receives as :func:`partial_estimated_delays` does;
    returns ``(mls_tilde, orphan_count)``."""
    matched = _match(views, strict=False)
    return _link_estimates(system, matched), matched.orphans


def true_local_shifts(system: System, alpha) -> Dict[Edge, Time]:
    """Ground-truth ``mls(p, q)`` from the execution's actual delays.

    Only the evaluation harness may call this (it reads real times); it
    exists to verify the identity ``mls~ = mls + S_p - S_q`` empirically.
    """
    return system.mls_from_delays(system.true_delays(alpha))


__all__ = [
    "IncompleteViewsError",
    "estimated_delays",
    "partial_estimated_delays",
    "local_shift_estimates",
    "partial_local_shift_estimates",
    "true_local_shifts",
]
