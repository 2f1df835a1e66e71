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

from typing import Dict, List, Mapping, Tuple

from repro._types import Edge, ProcessorId, Time
from repro.delays.system import System
from repro.model.views import View


class IncompleteViewsError(ValueError):
    """The views do not contain both endpoints of some delivered message."""


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
    return _matched_delays(views, strict=True)[0]


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
    return _matched_delays(views, strict=False)


def _matched_delays(
    views: Mapping[ProcessorId, View], strict: bool
) -> Tuple[Dict[Edge, List[Time]], int]:
    send_clocks: Dict[int, Time] = {}
    senders: Dict[int, ProcessorId] = {}
    for p, view in views.items():
        for uid, clock in view.send_clock_times().items():
            send_clocks[uid] = clock
            senders[uid] = p

    out: Dict[Edge, List[Time]] = {}
    orphans = 0
    for q, view in views.items():
        for uid, recv_clock in view.receive_clock_times().items():
            if uid not in send_clocks:
                if strict:
                    raise IncompleteViewsError(
                        f"{q!r} received message {uid} but no view contains "
                        "its send"
                    )
                orphans += 1
                continue
            p = senders[uid]
            out.setdefault((p, q), []).append(recv_clock - send_clocks[uid])
    return out, orphans


def local_shift_estimates(
    system: System, views: Mapping[ProcessorId, View]
) -> Dict[Edge, Time]:
    """``mls~(p, q)`` for every directed edge of the system.

    This is the per-link, views-only computation that the paper's
    modularity argument isolates: each link's estimate depends only on the
    two endpoint views and the link's own delay assumption.
    """
    return system.mls_from_delays(estimated_delays(views))


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
    "true_local_shifts",
]
