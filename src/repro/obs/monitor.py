"""Invariant monitors: every run self-checks against the paper.

A monitor is a *passive observer* of synchronization results: it never
changes behaviour and never raises by default -- it records structured
:class:`Violation` events when an execution breaks one of the paper's
guarantees.  The shipped monitors each police one theorem:

===================  =================================================
monitor              guarantee checked
===================  =================================================
closure-structure    ``ms~`` is a shortest-path closure: zero diagonal,
                     ``ms~ <= mls~`` entry-wise, triangle inequality
                     (Lemma 5.3 / Theorem 5.5)
optimality           corrections achieve the claimed ``A^max`` and the
                     critical cycle witnesses its optimality
                     (Theorems 4.4 / 4.6)
precision-bound      the *realized* corrected-clock spread never
                     exceeds the guaranteed ``A_alpha^max``
                     (Theorem 4.4; needs ground truth)
mls-soundness        the true offset ``S_p - S_q`` lies inside the
                     admissible interval ``[-ms~(q,p), ms~(p,q)]``, and
                     -- on complete views -- ``mls~ = mls + S_p - S_q``
                     exactly (Lemma 6.2 / Corollaries 6.3 and 6.6;
                     needs ground truth)
consistency          a streaming refresh hit an inconsistent closure
                     (negative cycle), which honest observations can
                     never produce (Theorem 5.5)
===================  =================================================

Attach a :class:`MonitorSuite` to the active recorder
(``recorder.add_observer(suite)``) and every ``pipeline.result`` emitted
by :class:`~repro.core.synchronizer.ClockSynchronizer` -- including the
refreshes the online synchronizer triggers -- is checked as it happens.
Ground-truth monitors stay silent until the suite is given the
execution (``suite.execution = alpha``); Claim 3.1 separation is
preserved because monitors run in the outside observer, never inside a
correction function.
"""

from __future__ import annotations

import dataclasses
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro._types import INF
from repro.core.optimality import check_component
from repro.core.precision import realized_spread
from repro.engine.index import pair_submatrix
from repro.obs.recorder import get_recorder

#: Default numerical slack, scaled by the magnitude of the claim.
DEFAULT_TOL = 1e-6


@dataclass(frozen=True)
class Violation:
    """One structured invariant-violation event."""

    monitor: str
    reference: str
    message: str
    sim_time: Optional[float] = None
    context: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-clean rendering (context values coerced via repr)."""
        return {
            "record": "violation",
            "monitor": self.monitor,
            "reference": self.reference,
            "message": self.message,
            "sim_time": self.sim_time,
            "context": {
                key: value
                if isinstance(value, (bool, int, float, str)) or value is None
                else repr(value)
                for key, value in self.context.items()
            },
        }


class MonitorViolationError(AssertionError):
    """Raised by a strict suite; carries the offending violations."""

    def __init__(self, violations: Sequence[Violation]) -> None:
        self.violations = list(violations)
        lines = [f"{len(self.violations)} invariant violation(s):"]
        lines.extend(
            f"  [{v.monitor}] {v.message} ({v.reference})"
            for v in self.violations[:5]
        )
        if len(self.violations) > 5:
            lines.append(f"  ... and {len(self.violations) - 5} more")
        super().__init__("\n".join(lines))


def _scale(value: float) -> float:
    return max(1.0, abs(value)) if math.isfinite(value) else 1.0


class Monitor(ABC):
    """One theorem's runtime check.

    ``execution`` is the ground truth (``None`` when only views-side
    data is available); ``complete`` marks results computed from an
    execution's *complete* views, enabling exact-identity checks that do
    not hold on prefixes of a message stream.
    """

    name: str = "monitor"
    reference: str = ""

    def __init__(self, tol: float = DEFAULT_TOL) -> None:
        self.tol = tol

    @abstractmethod
    def check(
        self, system, result, execution=None, complete: bool = False
    ) -> List[Violation]:
        """Return violations (empty list = the guarantee held)."""

    def violation(self, message: str, **context: Any) -> Violation:
        return Violation(
            monitor=self.name,
            reference=self.reference,
            message=message,
            context=context,
        )


class ClosureStructureMonitor(Monitor):
    """``ms~`` must be the shortest-path closure of ``mls~``."""

    name = "closure-structure"
    reference = "Lemma 5.3 / Theorem 5.5"

    def check(
        self, system, result, execution=None, complete: bool = False
    ) -> List[Violation]:
        ms = result.ms_tilde
        processors = sorted({p for pair in ms for p in pair}, key=repr)
        out = [
            self.violation(
                f"ms~({p!r},{p!r}) = {value:g}, expected 0",
                processor=p,
                value=value,
            )
            for p, value in ((p, ms.get((p, p), 0.0)) for p in processors)
            if abs(value) > self.tol
        ]
        edges = list(result.mls_tilde)
        direct = np.array(list(result.mls_tilde.values()), dtype=float)
        closed = np.array([ms.get(edge, INF) for edge in edges], dtype=float)
        out.extend(
            self.violation(
                f"ms~{edges[i]!r} = {closed[i]:g} exceeds direct "
                f"mls~ = {direct[i]:g}",
                edge=edges[i],
                ms=float(closed[i]),
                mls=float(direct[i]),
            )
            for i in np.flatnonzero(closed > direct + self._slack(direct))
        )
        # Triangle ms~(p,r) <= ms~(p,q) + ms~(q,r), one broadcast per
        # pivot q; an infinite leg makes the bound inf or NaN, never hit.
        matrix = pair_submatrix(ms, processors)
        for q, pivot in enumerate(processors):
            with np.errstate(invalid="ignore"):
                via = matrix[:, q, None] + matrix[q]
                hits = np.argwhere(matrix > via + self._slack(via))
            out.extend(
                self.violation(
                    f"triangle broken: ms~({processors[i]!r},"
                    f"{processors[j]!r}) = {matrix[i, j]:g} > "
                    f"{matrix[i, q]:g} + {matrix[q, j]:g}",
                    p=processors[i],
                    q=pivot,
                    r=processors[j],
                    direct=float(matrix[i, j]),
                    via=float(via[i, j]),
                )
                for i, j in hits
            )
        return out

    def _slack(self, values: np.ndarray) -> np.ndarray:
        """``tol * _scale(v)`` elementwise."""
        return self.tol * np.where(
            np.isfinite(values), np.maximum(1.0, np.abs(values)), 1.0
        )


class OptimalityMonitor(Monitor):
    """Corrections must achieve -- and the cycle witness certify -- ``A^max``.

    The same check as ``verify_certificate``, reporting every problem.
    """

    name = "optimality"
    reference = "Theorems 4.4 / 4.6"

    def check(
        self, system, result, execution=None, complete: bool = False
    ) -> List[Violation]:
        return [
            self.violation(message, component=component.processors)
            for component in result.components
            for message in check_component(result, component, self.tol)[1]
        ]


class PrecisionBoundMonitor(Monitor):
    """Ground truth: realized spread never exceeds the guarantee."""

    name = "precision-bound"
    reference = "Theorem 4.4 (rho <= A_alpha^max)"

    def check(
        self, system, result, execution=None, complete: bool = False
    ) -> List[Violation]:
        if execution is None:
            return []
        out: List[Violation] = []
        starts = execution.start_times()
        for component in result.components:
            if not math.isfinite(component.precision):
                continue
            procs = [p for p in component.processors if p in starts]
            if len(procs) <= 1:
                continue
            spread = realized_spread(
                {p: starts[p] for p in procs},
                {p: result.corrections[p] for p in procs},
            )
            tol = self.tol * _scale(component.precision)
            if spread > component.precision + tol:
                out.append(
                    self.violation(
                        f"realized spread {spread:g} exceeds guaranteed "
                        f"A^max {component.precision:g} on component "
                        f"{component.processors!r}",
                        component=component.processors,
                        spread=spread,
                        guaranteed=component.precision,
                    )
                )
        return out


class MlsSoundnessMonitor(Monitor):
    """Ground truth: estimates admit the true offsets (Lemma 6.2 side)."""

    name = "mls-soundness"
    reference = "Lemma 6.2 / Corollary 6.3"

    def check(
        self, system, result, execution=None, complete: bool = False
    ) -> List[Violation]:
        if execution is None:
            return []
        out: List[Violation] = []
        starts = execution.start_times()
        # Soundness: the true offset lies in the admissible interval of
        # every pair -- valid for any honest subset of observations.
        for (p, q), bound in result.ms_tilde.items():
            if p == q or not math.isfinite(bound):
                continue
            if p not in starts or q not in starts:
                continue
            offset = starts[p] - starts[q]
            if offset > bound + self.tol * _scale(bound):
                out.append(
                    self.violation(
                        f"true offset S_{p!r} - S_{q!r} = {offset:g} "
                        f"outside admissible bound ms~ = {bound:g}",
                        edge=(p, q),
                        offset=offset,
                        bound=bound,
                    )
                )
        if not complete:
            return out
        # Exact identity on complete views: mls~ = mls + (S_p - S_q)
        # (Corollaries 6.3 / 6.6).  Only meaningful when the result was
        # computed from every message of the execution.
        true_mls = system.mls_from_delays(system.true_delays(execution))
        for edge, estimate in result.mls_tilde.items():
            p, q = edge
            if p not in starts or q not in starts:
                continue
            truth = true_mls.get(edge, INF)
            if not math.isfinite(truth) or not math.isfinite(estimate):
                if math.isfinite(truth) != math.isfinite(estimate):
                    out.append(
                        self.violation(
                            f"mls~{edge!r} finiteness mismatch: estimate "
                            f"{estimate:g}, truth {truth:g}",
                            edge=edge,
                            estimate=estimate,
                            expected=truth,
                        )
                    )
                continue
            expected = truth + starts[p] - starts[q]
            if abs(estimate - expected) > self.tol * _scale(expected):
                out.append(
                    self.violation(
                        f"mls~{edge!r} = {estimate:g} != mls + S_p - S_q "
                        f"= {expected:g}",
                        edge=edge,
                        estimate=estimate,
                        expected=expected,
                    )
                )
        return out


def default_monitors(tol: float = DEFAULT_TOL) -> List[Monitor]:
    """The full shipped monitor set, in check order."""
    return [
        ClosureStructureMonitor(tol),
        OptimalityMonitor(tol),
        PrecisionBoundMonitor(tol),
        MlsSoundnessMonitor(tol),
    ]


class MonitorSuite:
    """Runs monitors on every synchronization result it observes.

    Either call :meth:`check` directly, or attach the suite to the
    active recorder -- it subscribes to the ``pipeline.result`` events
    the batch pipeline emits (the online synchronizer's refreshes go
    through the same path) and to the replayer's ``online.inconsistent``
    events.  Violations accumulate on the suite (and bump the
    ``monitor.violations`` counter); with ``strict=True`` the first
    violating check raises :class:`MonitorViolationError` instead.
    """

    def __init__(
        self,
        monitors: Optional[Sequence[Monitor]] = None,
        tol: float = DEFAULT_TOL,
        strict: bool = False,
        execution=None,
    ) -> None:
        self.monitors = (
            list(monitors) if monitors is not None else default_monitors(tol)
        )
        self.strict = strict
        self.execution = execution
        self.violations: List[Violation] = []
        self.checks = 0

    # -- observer interface --------------------------------------------

    def on_telemetry(self, kind: str, data: Mapping[str, Any]) -> None:
        if kind == "pipeline.result":
            self.check(
                data["system"],
                data["result"],
                sim_time=data.get("sim_time"),
            )
        elif kind == "online.inconsistent":
            self._record(
                [
                    Violation(
                        monitor="consistency",
                        reference="Theorem 5.5 (negative closure cycle)",
                        message=(
                            "streaming refresh found inconsistent views: "
                            f"{data.get('error', 'negative cycle')}"
                        ),
                        sim_time=data.get("sim_time"),
                        context={
                            "observations": data.get("observations"),
                        },
                    )
                ]
            )

    # -- checking ------------------------------------------------------

    def check(
        self,
        system,
        result,
        execution=None,
        complete: bool = False,
        sim_time: Optional[float] = None,
    ) -> List[Violation]:
        """Run every monitor on one result; returns the new violations."""
        execution = execution if execution is not None else self.execution
        if sim_time is None:
            sim_time = get_recorder().sim_time
        found: List[Violation] = []
        for monitor in self.monitors:
            found.extend(
                monitor.check(
                    system, result, execution=execution, complete=complete
                )
            )
        if sim_time is not None:
            found = [
                dataclasses.replace(v, sim_time=sim_time)
                if v.sim_time is None
                else v
                for v in found
            ]
        self.checks += 1
        recorder = get_recorder()
        if recorder.enabled:
            recorder.count("monitor.checks")
        self._record(found)
        return found

    def check_final(self, system, result, execution) -> List[Violation]:
        """Check a result computed from an execution's *complete* views.

        Enables the exact ``mls~ = mls + S_p - S_q`` identity, which
        does not hold for prefixes of a stream.
        """
        return self.check(system, result, execution=execution, complete=True)

    def _record(self, violations: List[Violation]) -> None:
        if not violations:
            return
        self.violations.extend(violations)
        recorder = get_recorder()
        if recorder.enabled:
            recorder.count("monitor.violations", len(violations))
        if self.strict:
            raise MonitorViolationError(violations)

    # -- reporting -----------------------------------------------------

    @property
    def ok(self) -> bool:
        """Whether every check so far passed."""
        return not self.violations

    def by_monitor(self) -> Dict[str, List[Violation]]:
        """Violations grouped by monitor name."""
        grouped: Dict[str, List[Violation]] = {}
        for violation in self.violations:
            grouped.setdefault(violation.monitor, []).append(violation)
        return grouped

    def summary_table(self):
        """Per-monitor violation summary as a printable table."""
        from repro.analysis.reporting import Table

        table = Table(
            title=(
                f"invariant monitors: {self.checks} checks, "
                f"{len(self.violations)} violations"
            ),
            headers=["monitor", "checks", "violations", "example"],
        )
        grouped = self.by_monitor()
        references = {m.name: m.reference for m in self.monitors}
        # Event-driven pseudo-monitors (e.g. "consistency") only appear
        # when they fired; list them after the configured monitors.
        extras = {
            name: hits[0].reference
            for name, hits in grouped.items()
            if name not in references
        }
        for name, reference in {**references, **extras}.items():
            hits = grouped.get(name, [])
            table.add_row(
                f"{name} [{reference}]",
                self.checks if name in references else "-",
                len(hits),
                hits[0].message if hits else "-",
            )
        return table

    def __repr__(self) -> str:
        return (
            f"MonitorSuite(checks={self.checks}, "
            f"violations={len(self.violations)})"
        )


__all__ = [
    "DEFAULT_TOL",
    "ClosureStructureMonitor",
    "MlsSoundnessMonitor",
    "Monitor",
    "MonitorSuite",
    "MonitorViolationError",
    "OptimalityMonitor",
    "PrecisionBoundMonitor",
    "Violation",
    "default_monitors",
]
