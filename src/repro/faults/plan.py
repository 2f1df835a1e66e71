"""Declarative fault plans: what goes wrong, where, and when.

The paper's delivery system is benign -- it "does not lose messages" and
delivers every message exactly once with an admissible delay.  Real
networks are not: messages vanish, links die, processors crash, clocks
get corrupted, retransmissions duplicate traffic.  A :class:`FaultPlan`
describes a deterministic, seeded schedule of such misbehaviours; the
:class:`~repro.faults.injector.FaultInjector` executes it inside the
simulator's dispatch path, and every downstream layer (pipeline, online
synchronizer, campaign runner) is expected to degrade *gracefully*:
fewer observations and wider (or per-component) precision, never a bare
exception, and -- for faults that violate the delay assumptions --
monitor violations that point at exactly the injected fault.

Fault taxonomy (one frozen dataclass each):

=====================  ================================================
fault                  delivery-system misbehaviour
=====================  ================================================
:class:`MessageLoss`   drop messages at a rate, or by per-edge ordinal
                       pattern ("drop the 2nd probe on this edge")
:class:`LinkDown`      drop everything sent on a link during a real-time
                       interval (both directions)
:class:`ProcessorCrash` fail-silent window: the processor takes no
                       receive or timer steps in ``[at, restart)``
:class:`TimestampCorruption` perturb the sampled delay (systematic
                       offset and/or seeded jitter) -- the fault class
                       that *breaks* the assumptions and must be caught
:class:`DuplicateDelivery` re-deliver a message a second time later
                       (at-least-once delivery)
=====================  ================================================

Plans are plain data: they validate against a system's topology, pickle
across process pools, and round-trip through JSON for the ``--faults
PLAN.json`` CLI surface.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro._types import INF, Edge, ProcessorId, Time
from repro.records import write_atomic


class FaultPlanError(ValueError):
    """A fault plan is malformed or names unknown links/processors."""


def _check_rate(value: float, label: str) -> float:
    if not 0.0 <= value <= 1.0:
        raise FaultPlanError(f"{label} must be in [0, 1], got {value}")
    return float(value)


@dataclass(frozen=True)
class MessageLoss:
    """Drop messages: independently at ``rate``, or by ordinal ``pattern``.

    ``pattern`` lists 0-based per-directed-edge message ordinals to drop
    deterministically ("the first and third message on each matching
    edge"); ``rate`` drops each message independently with the plan's
    seeded RNG.  ``edge=None`` applies to every directed edge; an edge
    given in either orientation matches that *direction* only.
    """

    rate: float = 0.0
    pattern: Tuple[int, ...] = ()
    edge: Optional[Edge] = None

    def __post_init__(self) -> None:
        _check_rate(self.rate, "MessageLoss.rate")
        if self.rate == 0.0 and not self.pattern:
            raise FaultPlanError(
                "MessageLoss needs a positive rate or a drop pattern"
            )
        if any(n < 0 for n in self.pattern):
            raise FaultPlanError("MessageLoss.pattern ordinals must be >= 0")

    kind = "message-loss"


@dataclass(frozen=True)
class LinkDown:
    """Both directions of ``edge`` drop all traffic in ``[start, end)``."""

    edge: Edge
    start: Time = 0.0
    end: Time = INF

    def __post_init__(self) -> None:
        if not self.end > self.start:
            raise FaultPlanError(
                f"LinkDown window [{self.start}, {self.end}) is empty"
            )

    kind = "link-down"

    def covers(self, t: Time) -> bool:
        """Whether the link is down at real time ``t``."""
        return self.start <= t < self.end


@dataclass(frozen=True)
class ProcessorCrash:
    """Fail-silent window: ``processor`` takes no steps in ``[at, restart)``.

    Receives arriving in the window are dropped (fail-silent, not
    fail-stop-and-buffer); timers due in the window are lost, not
    deferred.  ``restart=None`` means the processor never recovers.
    The start event still fires -- the model requires every history to
    begin with a start -- so a crash scheduled before the start time
    simply silences the processor from its very first interrupt on.
    """

    processor: ProcessorId
    at: Time
    restart: Optional[Time] = None

    def __post_init__(self) -> None:
        if self.restart is not None and not self.restart > self.at:
            raise FaultPlanError(
                f"ProcessorCrash restart {self.restart} must be after "
                f"crash time {self.at}"
            )

    kind = "processor-crash"

    def covers(self, t: Time) -> bool:
        """Whether the processor is down at real time ``t``."""
        if t < self.at:
            return False
        return self.restart is None or t < self.restart


@dataclass(frozen=True)
class TimestampCorruption:
    """Perturb sampled delays: ``delay + offset + uniform(-jitter, jitter)``.

    This is the fault class that can *violate* the link's delay
    assumption -- exactly what the theorem monitors exist to catch
    (Lemma 6.2 soundness, Theorem 5.5 consistency).  Corrupted delays
    are clamped at 0 (the delivery system cannot deliver into the past).
    ``rate`` selects which messages are corrupted (seeded, default all);
    ``edge=None`` matches every directed edge.
    """

    offset: Time = 0.0
    jitter: Time = 0.0
    rate: float = 1.0
    edge: Optional[Edge] = None

    def __post_init__(self) -> None:
        _check_rate(self.rate, "TimestampCorruption.rate")
        if self.jitter < 0:
            raise FaultPlanError("TimestampCorruption.jitter must be >= 0")
        if self.offset == 0.0 and self.jitter == 0.0:
            raise FaultPlanError(
                "TimestampCorruption needs a nonzero offset or jitter"
            )

    kind = "timestamp-corruption"


@dataclass(frozen=True)
class DuplicateDelivery:
    """Deliver matching messages twice; the copy arrives ``extra_delay`` later.

    At-least-once delivery: the receiving automaton sees the message
    again (protocols must tolerate it), and the recorded execution marks
    the second receive as a duplicate -- views and message records
    deduplicate by uid, first delivery wins, so delay statistics stay
    sound (see :meth:`repro.model.execution.Execution.message_records`).
    """

    rate: float = 0.0
    extra_delay: Time = 1.0
    edge: Optional[Edge] = None

    def __post_init__(self) -> None:
        _check_rate(self.rate, "DuplicateDelivery.rate")
        if self.rate == 0.0:
            raise FaultPlanError("DuplicateDelivery needs a positive rate")
        if self.extra_delay <= 0:
            raise FaultPlanError("DuplicateDelivery.extra_delay must be > 0")

    kind = "duplicate-delivery"


Fault = Union[
    MessageLoss, LinkDown, ProcessorCrash, TimestampCorruption,
    DuplicateDelivery,
]

_FAULT_KINDS: Dict[str, type] = {
    cls.kind: cls
    for cls in (
        MessageLoss, LinkDown, ProcessorCrash, TimestampCorruption,
        DuplicateDelivery,
    )
}


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded bundle of faults to inject into one run.

    ``seed`` drives every probabilistic choice the plan makes (loss
    coin flips, jitter draws, duplicate selection) through an RNG that
    is *separate* from the simulator's delay RNG, so adding a fault
    plan never perturbs the delays of messages it leaves alone.
    """

    faults: Tuple[Fault, ...] = ()
    seed: int = 0
    name: str = "plan"

    def __post_init__(self) -> None:
        for f in self.faults:
            if not isinstance(f, tuple(_FAULT_KINDS.values())):
                raise FaultPlanError(f"not a fault: {f!r}")

    def __bool__(self) -> bool:
        return bool(self.faults)

    def by_kind(self) -> Dict[str, List[Fault]]:
        """Faults grouped by kind string."""
        grouped: Dict[str, List[Fault]] = {}
        for f in self.faults:
            grouped.setdefault(f.kind, []).append(f)
        return grouped

    # ------------------------------------------------------------------
    # Validation against a concrete system
    # ------------------------------------------------------------------

    def validate_for(self, system) -> None:
        """Raise :class:`FaultPlanError` if the plan references anything
        the system does not have (unknown links or processors)."""
        processors = set(system.processors)
        for f in self.faults:
            edge = getattr(f, "edge", None)
            if edge is not None:
                p, q = edge
                try:
                    system.canonical_link(p, q)
                except KeyError:
                    raise FaultPlanError(
                        f"{f.kind} names ({p!r}, {q!r}), which is not a "
                        f"link of {system.topology.name}"
                    ) from None
            if isinstance(f, ProcessorCrash) and f.processor not in processors:
                raise FaultPlanError(
                    f"processor-crash names {f.processor!r}, which is not "
                    f"a processor of {system.topology.name}"
                )

    # ------------------------------------------------------------------
    # JSON round trip (``--faults PLAN.json``)
    # ------------------------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        """A JSON-clean rendering; ``inf`` times export as the string 'inf'."""
        records = []
        for f in self.faults:
            record: Dict[str, Any] = {"kind": f.kind}
            for key, value in vars(f).items():
                if isinstance(value, float) and value == INF:
                    value = "inf"
                elif isinstance(value, tuple):
                    value = list(value)
                record[key] = value
            records.append(record)
        return {
            "type": "fault.plan",
            "name": self.name,
            "seed": self.seed,
            "faults": records,
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_json` output."""
        if data.get("type") != "fault.plan":
            raise FaultPlanError(
                f"not a fault.plan record: type={data.get('type')!r}"
            )
        faults: List[Fault] = []
        for record in data.get("faults", []):
            record = dict(record)
            kind = record.pop("kind", None)
            if kind not in _FAULT_KINDS:
                raise FaultPlanError(
                    f"unknown fault kind {kind!r}; "
                    f"known: {sorted(_FAULT_KINDS)}"
                )
            for key, value in list(record.items()):
                if value == "inf":
                    record[key] = INF
                elif isinstance(value, list):
                    record[key] = tuple(value)
            try:
                faults.append(_FAULT_KINDS[kind](**record))
            except TypeError as exc:
                raise FaultPlanError(
                    f"bad arguments for {kind}: {exc}"
                ) from None
        return cls(
            faults=tuple(faults),
            seed=int(data.get("seed", 0)),
            name=str(data.get("name", "plan")),
        )


def load_fault_plan(path: Union[str, Path]) -> FaultPlan:
    """Read a :class:`FaultPlan` from a JSON file."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise FaultPlanError(f"cannot read fault plan {path}: {exc}") from exc
    return FaultPlan.from_json(data)


def dump_fault_plan(plan: FaultPlan, path: Union[str, Path]) -> Path:
    """Write ``plan`` to a JSON file; returns the path."""
    return write_atomic(path, json.dumps(plan.to_json(), indent=2, sort_keys=True))


def example_plan() -> FaultPlan:
    """The template plan printed by ``repro faults template``.

    Edges are named for a small ring (``0 - 1 - 2 - ...``); adapt the
    ids to the target topology before use.
    """
    return FaultPlan(
        name="example",
        seed=0,
        faults=(
            MessageLoss(rate=0.2),
            LinkDown(edge=(0, 1), start=10.0, end=25.0),
            ProcessorCrash(processor=2, at=15.0, restart=30.0),
            TimestampCorruption(edge=(1, 2), offset=-1.5, rate=1.0),
            DuplicateDelivery(rate=0.1, extra_delay=2.0),
        ),
    )


__all__ = [
    "DuplicateDelivery",
    "Fault",
    "FaultPlan",
    "FaultPlanError",
    "LinkDown",
    "MessageLoss",
    "ProcessorCrash",
    "TimestampCorruption",
    "dump_fault_plan",
    "example_plan",
    "load_fault_plan",
]
