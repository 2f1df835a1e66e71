"""Optimality certificates (paper, Theorems 4.4 and 4.6).

A :class:`~repro.core.synchronizer.SyncResult` claims its precision is
optimal.  That claim is checkable without trusting the pipeline:

* **Upper bound** -- recompute ``rho_bar`` of the returned corrections
  directly from ``ms~`` and confirm it does not exceed the claimed
  precision.
* **Lower bound** -- the critical cycle ``theta`` is a witness: summing
  Lemma 4.3 around it shows every correction vector ``x`` satisfies
  ``rho_bar(x) >= ms~(theta) / |theta|``, so confirming the cycle's mean
  equals the claimed precision certifies that nothing can do better.

:func:`verify_certificate` performs both checks; the experiments run it on
every instance so that "optimal" in the reports is a verified statement,
not an assumption.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Sequence, Tuple

from repro._types import ProcessorId, Time
from repro.core.precision import rho_bar
from repro.core.synchronizer import ComponentResult, SyncResult


class CertificateError(AssertionError):
    """A synchronization result failed its own optimality certificate."""


@dataclass(frozen=True)
class Certificate:
    """Outcome of a verification: the two bounds and their agreement."""

    claimed_precision: Time
    achieved_rho_bar: Time
    cycle_mean: Time

    @property
    def gap(self) -> Time:
        """Distance between the upper and lower bound evidence (~0 when optimal)."""
        return abs(self.achieved_rho_bar - self.cycle_mean)


def cycle_mean_under(
    ms_tilde: Mapping[Tuple[ProcessorId, ProcessorId], Time],
    cycle: Sequence[ProcessorId],
) -> Time:
    """Mean ``ms~`` weight of a cyclic processor sequence."""
    if not cycle:
        raise ValueError("empty cycle")
    k = len(cycle)
    total = 0.0
    for i in range(k):
        total += ms_tilde[(cycle[i], cycle[(i + 1) % k])]
    return total / k


def check_component(
    result: SyncResult, component: ComponentResult, tol: float = 1e-6
) -> Tuple[Certificate, List[str]]:
    """Certify one synchronization component; return every problem found.

    :func:`verify_certificate` raises on the first problem, and
    :class:`~repro.obs.monitor.OptimalityMonitor` reports them all.
    """
    procs, claimed = component.processors, component.precision
    corrections = {p: result.corrections[p] for p in procs}
    achieved = rho_bar(result.ms_tilde, corrections)
    scale = max(1.0, abs(claimed))
    problems: List[str] = []
    if achieved > claimed + tol * scale:
        problems.append(
            f"upper bound violated on component {procs!r}: corrections "
            f"achieve rho_bar={achieved}, claimed {claimed}"
        )
    mean = 0.0
    if len(procs) > 1 and component.critical_cycle is None:
        problems.append(f"component {procs!r} has no critical cycle witness")
    elif len(procs) > 1:
        mean = cycle_mean_under(result.ms_tilde, component.critical_cycle)
        if abs(mean - claimed) > tol * scale:
            problems.append(
                f"lower-bound witness broken: cycle mean {mean} != "
                f"claimed precision {claimed}"
            )
    return Certificate(claimed, achieved, mean), problems


def verify_certificate(result: SyncResult, tol: float = 1e-6) -> Certificate:
    """Check a result's optimality end to end; raise on any violation.

    Works per synchronization component (a multi-component result has
    infinite global precision by construction; each component certifies
    its own finite precision).  Returns the certificate of the worst
    component for inspection.  O(n^2) array work per component.
    """
    worst: Certificate = Certificate(0.0, 0.0, 0.0)
    for component in result.components:
        cert, problems = check_component(result, component, tol)
        if problems:
            raise CertificateError(problems[0])
        if cert.claimed_precision >= worst.claimed_precision:
            worst = cert
    return worst


def beats_or_ties(
    result: SyncResult,
    other_corrections: Mapping[ProcessorId, Time],
    tol: float = 1e-9,
) -> bool:
    """Whether the optimal result is at least as good as ``other_corrections``.

    Compares guaranteed precisions under the same ``ms~`` -- the exact
    ranking the paper's optimality definition uses.  Used by tests and the
    baseline experiments to confirm Theorem 4.4 empirically against every
    competitor.
    """
    other = rho_bar(result.ms_tilde, other_corrections)
    mine = rho_bar(result.ms_tilde, result.corrections)
    scale = max(1.0, abs(other))
    return mine <= other + tol * scale


__all__ = [
    "CertificateError",
    "Certificate",
    "check_component",
    "cycle_mean_under",
    "verify_certificate",
    "beats_or_ties",
]
