"""The live == offline contract, checked byte-for-byte.

Claim 3.1 says corrections are a function of the views alone.  The live
stack inherits that: the correction server stamps every answer with the
*cut* (probe-log length) its result was computed from, and this module
replays any cut through the ordinary batch pipeline --
``ClockSynchronizer.from_views`` over the views induced by the log's
first ``cut`` records -- and demands the replayed corrections equal the
served ones **exactly** (float equality, no tolerance).  The streaming
== batch invariant of :class:`~repro.extensions.online.OnlineSynchronizer`
makes that a theorem in real arithmetic; this module is its auditor.

The theorem has a measured limit in floats.  The online refresh repairs
its cached closure incrementally, which adds path segments in a
different order from the batch Floyd--Warshall, so the two can differ
in the last bits.  Streaming the ``heterogeneous`` scenario in delivery
order and comparing every refresh with the batch run on its prefix, they
differed on 35 of 328 refreshes at complete(4) (by at most 1.8e-15),
211 of 423 at ring(8) (2.0e-14) and 878 of 1,135 at random(16)
(7.3e-14).  On the live cluster's model (lower-bound-only links) no
refresh differed: 0 of 478 at complete(4), 0 of 1,552 at complete(12).
That measurement, not a proof, is why the audit can stay exact for the
live service; see DESIGN.md section 14.

Only ``status == "ok"`` answers participate: ``pending`` carries no
correction, and ``stale`` (fallback over momentarily inconsistent
statistics) reflects an older cut by design.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.synchronizer import ClockSynchronizer, SyncResult
from repro.delays.system import System
from repro.live.trace import ProbeLog
from repro.live.wire import Correction, WireId


@dataclass(frozen=True)
class ReplayMismatch:
    """One served answer the offline replay could not reproduce."""

    qid: int
    client: WireId
    cut: int
    field_name: str  # "correction" | "precision"
    served: Optional[float]
    replayed: Optional[float]

    def describe(self) -> str:
        return (
            f"qid {self.qid} client {self.client!r} cut {self.cut}: "
            f"served {self.field_name}={self.served!r}, "
            f"replay gives {self.replayed!r}"
        )


@dataclass
class ReplayReport:
    """Outcome of auditing served answers against the probe log."""

    checked: int = 0
    skipped: int = 0  # non-"ok" answers, outside the contract
    cuts: Tuple[int, ...] = ()
    mismatches: List[ReplayMismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def describe(self) -> str:
        if self.ok:
            return (
                f"replay equality holds: {self.checked} answer(s) across "
                f"{len(self.cuts)} cut(s) reproduced exactly "
                f"({self.skipped} non-ok answer(s) outside the contract)"
            )
        lines = [
            f"replay equality VIOLATED: {len(self.mismatches)} of "
            f"{self.checked} answer(s) differ"
        ]
        lines.extend("  " + m.describe() for m in self.mismatches[:10])
        if len(self.mismatches) > 10:
            lines.append(f"  ... and {len(self.mismatches) - 10} more")
        return "\n".join(lines)


def replay_cut(
    log: ProbeLog,
    system: System,
    cut: Optional[int] = None,
    *,
    root: Optional[WireId] = None,
) -> SyncResult:
    """The batch pipeline's answer at one cut of the probe log."""
    synchronizer = ClockSynchronizer(system, root=root)
    views = log.views(cut, processors=system.processors)
    return synchronizer.from_views(views)


def verify_replay_equality(
    log: ProbeLog,
    answers: Sequence[Correction],
    system: System,
    *,
    root: Optional[WireId] = None,
) -> ReplayReport:
    """Audit served answers: ``from_views(log[:cut])`` must match exactly.

    Replays each distinct cut once (answers are grouped by cut) and
    compares every ``ok`` answer's correction and precision with exact
    float equality.  Returns a :class:`ReplayReport`; callers assert
    :attr:`ReplayReport.ok`.
    """
    report = ReplayReport()
    by_cut: Dict[int, List[Correction]] = {}
    for answer in answers:
        if answer.status != "ok":
            report.skipped += 1
            continue
        by_cut.setdefault(answer.cut, []).append(answer)
    report.cuts = tuple(sorted(by_cut))
    for cut in report.cuts:
        result = replay_cut(log, system, cut, root=root)
        for answer in by_cut[cut]:
            report.checked += 1
            replayed = result.corrections.get(answer.client)
            if replayed != answer.correction:
                report.mismatches.append(
                    ReplayMismatch(
                        qid=answer.qid,
                        client=answer.client,
                        cut=cut,
                        field_name="correction",
                        served=answer.correction,
                        replayed=replayed,
                    )
                )
            if result.precision != answer.precision:
                report.mismatches.append(
                    ReplayMismatch(
                        qid=answer.qid,
                        client=answer.client,
                        cut=cut,
                        field_name="precision",
                        served=answer.precision,
                        replayed=result.precision,
                    )
                )
    return report


__all__ = [
    "ReplayMismatch",
    "ReplayReport",
    "replay_cut",
    "verify_replay_equality",
]
