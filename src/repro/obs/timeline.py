"""Simulated-time series: gauges sampled against the simulation clock.

The metrics registry (:mod:`repro.obs.metrics`) is wall-clock-agnostic
but *stateless in time*: a gauge holds one reading.  Watching the online
synchronizer converge -- precision tightening, corrections settling,
``ms~`` entries dropping as observations arrive -- needs the reading *as
a function of simulated time*.  A :class:`Timeline` holds named series
of ``(sim_time, value)`` points; nothing in this module ever consults
the wall clock or an RNG, so timelines of deterministic runs are
deterministic.

:func:`replay_online` is the standard producer: it replays a recorded
execution's messages in delivery order through an
:class:`~repro.extensions.online.OnlineSynchronizer`, sampling the
convergence gauges after every observation that changes a sufficient
statistic.  It also installs the simulated clock on the active recorder
(:meth:`~repro.obs.recorder.Recorder.set_sim_time`), so the
``online.refresh`` spans it triggers carry ``sim_time`` attributes and
correlate with the series.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

# NOTE: repro.core / repro.extensions are imported lazily inside
# replay_online -- they pull in the engine, which imports this package
# (for the metrics registry), so module-level imports would be circular.
from repro.obs.recorder import get_recorder
from repro.records import PathLike, dumps_record, iter_records, write_lines


class Series:
    """One named simulated-time series; points are ``(sim_time, value)``.

    Append order must be non-decreasing in time (replay and simulation
    both produce monotone time), which is what lets exports promise
    sorted points without sorting.
    """

    __slots__ = ("name", "description", "_points")

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self._points: List[Tuple[float, float]] = []

    def append(self, sim_time: float, value: float) -> None:
        if self._points and sim_time < self._points[-1][0]:
            raise ValueError(
                f"series {self.name!r}: sample at {sim_time} precedes "
                f"last sample at {self._points[-1][0]}"
            )
        self._points.append((float(sim_time), float(value)))

    @property
    def points(self) -> List[Tuple[float, float]]:
        return list(self._points)

    def times(self) -> List[float]:
        return [t for t, _ in self._points]

    def values(self) -> List[float]:
        return [v for _, v in self._points]

    def last(self) -> Optional[Tuple[float, float]]:
        return self._points[-1] if self._points else None

    def __len__(self) -> int:
        return len(self._points)

    def __repr__(self) -> str:
        return f"Series({self.name!r}, {len(self)} points)"


class Timeline:
    """Thread-safe, get-or-create store of simulated-time series."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._series: Dict[str, Series] = {}

    def series(self, name: str, description: str = "") -> Series:
        with self._lock:
            existing = self._series.get(name)
            if existing is not None:
                return existing
            created = Series(name, description)
            self._series[name] = created
            return created

    def sample(self, name: str, sim_time: float, value: float) -> None:
        """One-shot append (prefer caching the series in loops)."""
        self.series(name).append(sim_time, value)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._series)

    def get(self, name: str) -> Optional[Series]:
        with self._lock:
            return self._series.get(name)

    def __len__(self) -> int:
        with self._lock:
            return len(self._series)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._series

    def __repr__(self) -> str:
        return f"Timeline({len(self)} series)"


# ----------------------------------------------------------------------
# JSONL export / validation
# ----------------------------------------------------------------------


def timeline_jsonl_lines(timeline: Timeline):
    """One JSON object per series (sorted by name)."""
    for name in timeline.names():
        series = timeline.get(name)
        yield dumps_record(
            {
                "record": "timeseries",
                "name": name,
                "description": series.description,
                "points": [[t, v] for t, v in series.points],
            }
        )


def write_timeline_jsonl(path: PathLike, timeline: Timeline) -> Path:
    """Dump the timeline as JSONL; returns the path."""
    return write_lines(path, timeline_jsonl_lines(timeline))


def validate_timeline_file(path: PathLike) -> int:
    """Check a timeline JSONL file; returns the series count.

    Every record must carry sorted, finite ``[sim_time, value]`` points;
    raises ``ValueError`` otherwise, so CI can use it as an assertion.
    """
    series = 0
    for lineno, record in iter_records(path):
        if record.get("record") != "timeseries" or "name" not in record:
            raise ValueError(
                f"{path}:{lineno}: not a timeseries record"
            )
        previous = float("-inf")
        for point in record.get("points", ()):
            if (
                not isinstance(point, list)
                or len(point) != 2
                or not all(isinstance(x, (int, float)) for x in point)
                or not all(math.isfinite(x) for x in point)
            ):
                raise ValueError(
                    f"{path}:{lineno}: malformed point {point!r}"
                )
            if point[0] < previous:
                raise ValueError(
                    f"{path}:{lineno}: points not sorted by sim_time"
                )
            previous = point[0]
        series += 1
    if series == 0:
        raise ValueError(f"{path}: no timeseries records")
    return series


# ----------------------------------------------------------------------
# Online-convergence replay
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceSample:
    """One convergence-table row: the online state at one simulated time."""

    sim_time: float
    observations: int
    precision: float
    realized_spread: float
    correction_spread: float
    components: int


@dataclass
class ReplayResult:
    """Everything :func:`replay_online` produced."""

    online: Any
    timeline: Timeline
    samples: List[ConvergenceSample] = field(default_factory=list)
    corrupted_observations: int = 0
    inconsistent_refreshes: int = 0

    @property
    def final(self) -> Optional[ConvergenceSample]:
        return self.samples[-1] if self.samples else None


def replay_online(
    system,
    alpha,
    timeline: Optional[Timeline] = None,
    root=None,
    corrupt_at: Optional[int] = None,
    corrupt_delta: float = 0.0,
) -> ReplayResult:
    """Replay ``alpha``'s messages through an online synchronizer.

    Messages are ingested in delivery order (receive real time, uid as
    the deterministic tiebreaker -- the order the delivery system would
    hand them over).  After every observation that changes a sufficient
    statistic (and after the final one), the convergence gauges are
    sampled against the delivery's simulated time:

    * ``online.precision`` -- the guaranteed ``A_alpha^max`` so far
      (sampled once finite);
    * ``online.realized_spread`` -- ground-truth corrected-clock spread
      (the outside observer's view; always ``<=`` precision, Thm 4.4);
    * ``online.correction(p)`` -- per-processor corrections.

    ``corrupt_at``/``corrupt_delta`` deliberately corrupt one estimated
    delay (observation index ``corrupt_at`` gets ``+ corrupt_delta``) --
    the monitors' true-positive test hook.  A corruption that makes the
    views inconsistent is caught here: the refresh's
    :class:`InconsistentViewsError` is converted into an
    ``online.inconsistent`` telemetry event instead of propagating.

    The active recorder's simulated clock is set to each delivery time
    for the duration of the replay, so spans and monitor events carry
    ``sim_time`` attributes.
    """
    from repro.core.errors import InconsistentViewsError
    from repro.core.precision import realized_spread
    from repro.extensions.online import OnlineSynchronizer

    online = OnlineSynchronizer(system, root=root)
    timeline = timeline if timeline is not None else Timeline()
    result = ReplayResult(online=online, timeline=timeline)

    records = sorted(
        alpha.message_records().values(),
        key=lambda r: (r.receive_real_time, r.message.uid),
    )
    starts = alpha.start_times()
    recorder = get_recorder()
    try:
        for index, record in enumerate(records):
            sender = record.message.sender
            receiver = record.message.receiver
            sim_time = record.receive_real_time
            recorder.set_sim_time(sim_time)
            estimated = (sim_time - starts[receiver]) - (
                record.send_real_time - starts[sender]
            )
            if corrupt_at is not None and index == corrupt_at:
                estimated += corrupt_delta
                result.corrupted_observations += 1
                recorder.emit(
                    "online.corruption",
                    edge=(sender, receiver),
                    delta=corrupt_delta,
                    sim_time=sim_time,
                )
            changed = online.observe(sender, receiver, estimated)
            if not changed and index != len(records) - 1:
                continue
            try:
                sync = online.result()
            except InconsistentViewsError as exc:
                result.inconsistent_refreshes += 1
                recorder.emit(
                    "online.inconsistent",
                    error=str(exc),
                    sim_time=sim_time,
                    observations=online.observation_count,
                )
                continue
            _sample(
                timeline,
                result,
                sim_time,
                online.observation_count,
                sync,
                realized_spread(starts, sync.corrections),
            )
    finally:
        recorder.set_sim_time(None)
    return result


def _sample(
    timeline: Timeline,
    result: ReplayResult,
    sim_time: float,
    observations: int,
    sync,
    spread: float,
) -> None:
    corrections = sync.corrections
    correction_spread = (
        max(corrections.values()) - min(corrections.values())
        if corrections
        else 0.0
    )
    result.samples.append(
        ConvergenceSample(
            sim_time=sim_time,
            observations=observations,
            precision=sync.precision,
            realized_spread=spread,
            correction_spread=correction_spread,
            components=len(sync.components),
        )
    )
    timeline.sample("online.observations", sim_time, observations)
    if math.isfinite(sync.precision):
        timeline.sample("online.precision", sim_time, sync.precision)
    if math.isfinite(spread):
        timeline.sample("online.realized_spread", sim_time, spread)
    timeline.sample("online.correction_spread", sim_time, correction_spread)
    timeline.sample("online.components", sim_time, len(sync.components))
    for p, x in corrections.items():
        timeline.sample(f"online.correction({p!r})", sim_time, x)


__all__ = [
    "ConvergenceSample",
    "ReplayResult",
    "Series",
    "Timeline",
    "replay_online",
    "timeline_jsonl_lines",
    "validate_timeline_file",
    "write_timeline_jsonl",
]
