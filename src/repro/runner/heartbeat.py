"""Shard heartbeats: atomic liveness/progress sidecars for fleet runs.

A detached ``--shard i/m`` invocation is only observable from outside
through the files it leaves behind.  PR 6 made the *data* durable (the
JSONL stream + manifest); this module makes the *liveness* observable:
the runner periodically writes an atomic ``heartbeat-i-of-m.json``
sidecar next to its sink, carrying

* wall-clock **and** monotonic ``updated_at`` readings (the monotonic
  one survives wall-clock steps on the same machine; the wall one is
  the cross-machine fallback),
* progress counters (cells completed / total / quarantined, cache
  hits, resumed cells, resident high-water),
* an EWMA cell-throughput estimate and the ETA derived from it,
* the currently executing cell and how long it has been running
  (in-process execution only -- a pool parent cannot see starts).

Beats are **event-driven, not timed**: the writer only touches disk
from the runner's own progress callbacks (cell started / finished /
settled), throttled to one write per ``interval`` seconds.  That is the
stall-detection contract -- a background timer thread would keep
beating while a cell hangs, which is exactly the failure the heartbeat
exists to expose.  A hung cell blocks the runner, the callbacks stop,
the file ages, and :mod:`repro.runner.status` flags the shard.

Writes are atomic (:func:`repro.records.write_atomic`, same discipline
as the shard manifest), so a reader never sees a torn heartbeat: it
sees the previous beat or the new one, nothing in between.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence, Tuple, Union

from repro.records import write_atomic
from repro.transport import transport_counter_snapshot

#: Bump on any incompatible change to the heartbeat record layout.
HEARTBEAT_VERSION = 1

#: EWMA smoothing factor for inter-completion times: ~the last dozen
#: cells dominate the throughput estimate, so the ETA tracks the
#: current regime (cell cost grows with topology size) instead of the
#: whole-run average.
EWMA_ALPHA = 0.2

#: One heartbeat write per this many seconds, unless forced.
DEFAULT_HEARTBEAT_INTERVAL = 5.0


def heartbeat_path(
    directory: Union[str, Path], shard: Optional[Tuple[int, int]] = None
) -> Path:
    """The heartbeat sidecar path for one shard of a results directory."""
    index, count = (1, 1) if shard is None else (int(shard[0]), int(shard[1]))
    return Path(directory) / f"heartbeat-{index}-of-{count}.json"


@dataclass(frozen=True)
class Heartbeat:
    """One decoded heartbeat record (see module docstring for fields).

    ``updated_at`` is wall-clock epoch seconds; ``monotonic`` is the
    writer's ``time.monotonic()`` at the same instant.  A reader on the
    same machine prefers the monotonic age (immune to clock steps) and
    falls back to the wall age across machines -- see
    :mod:`repro.runner.status`.
    """

    shard: Tuple[int, int]
    pid: int
    host: str
    started_at: float
    updated_at: float
    monotonic: float
    cells_total: int
    cells_completed: int
    cells_quarantined: int
    cache_hits: int
    resumed: int
    resident_high_water: int
    throughput: Optional[float]
    eta_seconds: Optional[float]
    current_cell: Optional[Tuple[str, str, int]]
    current_cell_seconds: Optional[float]
    complete: bool
    #: reliable-transport counter totals (``transport.*``), present only
    #: when the shard's workload ran the transport layer.
    transport: Mapping[str, float] = field(default_factory=dict)

    @property
    def cells_remaining(self) -> int:
        """Cells this shard still owes (never negative)."""
        return max(
            0, self.cells_total - self.cells_completed - self.cells_quarantined
        )

    def to_json(self) -> dict:
        return {
            "type": "campaign.heartbeat",
            "version": HEARTBEAT_VERSION,
            "shard": list(self.shard),
            "pid": self.pid,
            "host": self.host,
            "started_at": self.started_at,
            "updated_at": self.updated_at,
            "monotonic": self.monotonic,
            "cells_total": self.cells_total,
            "cells_completed": self.cells_completed,
            "cells_quarantined": self.cells_quarantined,
            "cache_hits": self.cache_hits,
            "resumed": self.resumed,
            "resident_high_water": self.resident_high_water,
            "throughput": self.throughput,
            "eta_seconds": self.eta_seconds,
            "current_cell": (
                None if self.current_cell is None else list(self.current_cell)
            ),
            "current_cell_seconds": self.current_cell_seconds,
            "complete": self.complete,
            "transport": dict(self.transport),
        }

    @classmethod
    def from_json(cls, data: dict) -> "Heartbeat":
        if data.get("type") != "campaign.heartbeat":
            raise ValueError(
                f"not a campaign.heartbeat record: type={data.get('type')!r}"
            )
        if data.get("version") != HEARTBEAT_VERSION:
            raise ValueError(
                f"heartbeat version {data.get('version')!r}, "
                f"expected {HEARTBEAT_VERSION}"
            )
        shard = data["shard"]
        current = data.get("current_cell")
        return cls(
            shard=(int(shard[0]), int(shard[1])),
            pid=int(data["pid"]),
            host=str(data["host"]),
            started_at=float(data["started_at"]),
            updated_at=float(data["updated_at"]),
            monotonic=float(data["monotonic"]),
            cells_total=int(data["cells_total"]),
            cells_completed=int(data["cells_completed"]),
            cells_quarantined=int(data.get("cells_quarantined", 0)),
            cache_hits=int(data.get("cache_hits", 0)),
            resumed=int(data.get("resumed", 0)),
            resident_high_water=int(data.get("resident_high_water", 0)),
            throughput=(
                None if data.get("throughput") is None
                else float(data["throughput"])
            ),
            eta_seconds=(
                None if data.get("eta_seconds") is None
                else float(data["eta_seconds"])
            ),
            current_cell=(
                None if current is None
                else (str(current[0]), str(current[1]), int(current[2]))
            ),
            current_cell_seconds=(
                None if data.get("current_cell_seconds") is None
                else float(data["current_cell_seconds"])
            ),
            complete=bool(data.get("complete", False)),
            transport={
                str(name): float(value)
                for name, value in (data.get("transport") or {}).items()
            },
        )


def read_heartbeat(path: Union[str, Path]) -> Optional[Heartbeat]:
    """Decode one heartbeat file, or ``None`` if missing or unreadable.

    Corruption tolerance mirrors the rest of the telemetry plane: a
    heartbeat that cannot be parsed is treated as absent (the status
    layer then falls back to manifest/stream timestamps), never as an
    error -- observability must not be able to fail a fleet.
    """
    try:
        data = json.loads(Path(path).read_text())
        if isinstance(data, dict):
            return Heartbeat.from_json(data)
    except (OSError, ValueError, KeyError, TypeError, IndexError):
        pass
    return None


class HeartbeatWriter:
    """Emits atomic heartbeat sidecars from the runner's progress hooks.

    The writer is the *progress listener* the executor accepts
    (``execute_cells(..., progress=writer)``):

    * :meth:`cell_started` / :meth:`cell_finished` come from the
      executor (start visibility only on its in-process branch, where
      the executing process is the observing process);
    * :meth:`set_progress` carries the campaign runner's authoritative
      absolute counters (which survive retries and count resumed and
      cache-restored cells -- per-completion increments would not);
    * :meth:`close` marks the shard complete with one final beat.

    Every callback funnels into :meth:`beat`, which rewrites the file
    at most once per ``interval`` seconds.  ``clock``/``monotonic`` are
    injectable for tests.  Thread-safe, though the runner drives it
    from a single thread.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        shard: Optional[Tuple[int, int]] = None,
        *,
        interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        clock: Callable[[], float] = time.time,
        monotonic: Callable[[], float] = time.monotonic,
        transport_source: Optional[
            Callable[[], Mapping[str, float]]
        ] = None,
    ) -> None:
        if interval < 0:
            raise ValueError(f"interval must be >= 0, got {interval}")
        self._shard = (
            (1, 1) if shard is None else (int(shard[0]), int(shard[1]))
        )
        self._path = heartbeat_path(directory, self._shard)
        self._interval = float(interval)
        self._clock = clock
        self._monotonic = monotonic
        self._lock = threading.Lock()
        self._started_at = clock()
        self._total = 0
        self._completed: Optional[int] = None  # authoritative, when set
        self._finished = 0  # executor-counted fallback
        self._quarantined = 0
        self._cache_hits = 0
        self._resumed = 0
        self._resident = 0
        self._ewma_dt: Optional[float] = None
        self._last_finish: Optional[float] = None
        self._current: Optional[Tuple[str, str, int]] = None
        self._current_started: Optional[float] = None
        self._last_beat: Optional[float] = None
        self._beats = 0
        self._closed = False
        self._pid = os.getpid()
        self._host = socket.gethostname()
        # Default source: scrape the ambient metric registry's totals
        # (empty when observability is off or no transport ran, so the
        # field stays an empty object in the common case).
        self._transport_source = (
            transport_source
            if transport_source is not None
            else lambda: transport_counter_snapshot(per_link=False)
        )

    # -- introspection -----------------------------------------------------

    @property
    def path(self) -> Path:
        return self._path

    @property
    def beats(self) -> int:
        """Heartbeat files written so far (throttle observability)."""
        return self._beats

    @property
    def completed(self) -> int:
        """Authoritative completed count, or the executor-counted one."""
        return self._finished if self._completed is None else self._completed

    @property
    def throughput(self) -> Optional[float]:
        """EWMA cells/second, once at least two completions happened."""
        if self._ewma_dt is None or self._ewma_dt <= 0:
            return None
        return 1.0 / self._ewma_dt

    @property
    def eta_seconds(self) -> Optional[float]:
        """Remaining cells / EWMA throughput, when both are known."""
        rate = self.throughput
        if rate is None:
            return None
        remaining = max(0, self._total - self.completed - self._quarantined)
        return remaining / rate

    # -- progress hooks ----------------------------------------------------

    def begin(self, total: int) -> None:
        """Declare the shard's cell count and write the first beat."""
        with self._lock:
            self._total = int(total)
        self.beat(force=True)

    def cell_started(self, key: Sequence) -> None:
        """The executor started one cell (in-process branch only)."""
        with self._lock:
            self._current = (str(key[0]), str(key[1]), int(key[2]))
            self._current_started = self._monotonic()
        self.beat()

    def cell_finished(self, seconds: Optional[float] = None) -> None:
        """The executor saw one cell settle; updates the EWMA rate."""
        with self._lock:
            now = self._monotonic()
            if self._last_finish is not None:
                dt = max(now - self._last_finish, 1e-9)
            elif seconds is not None and seconds > 0:
                dt = seconds  # first completion: seed with the cell's cost
            else:
                dt = None
            if dt is not None:
                self._ewma_dt = (
                    dt
                    if self._ewma_dt is None
                    else EWMA_ALPHA * dt + (1.0 - EWMA_ALPHA) * self._ewma_dt
                )
            self._last_finish = now
            self._finished += 1
            self._current = None
            self._current_started = None
        self.beat()

    def set_progress(
        self,
        *,
        total: Optional[int] = None,
        completed: Optional[int] = None,
        quarantined: Optional[int] = None,
        cache_hits: Optional[int] = None,
        resumed: Optional[int] = None,
        resident: Optional[int] = None,
    ) -> None:
        """Absolute progress counters from the campaign runner.

        These override the executor-counted fallback: retries would
        double-count per-completion increments, and resumed or
        cache-restored cells never pass through an executor at all.
        """
        with self._lock:
            if total is not None:
                self._total = int(total)
            if completed is not None:
                self._completed = int(completed)
            if quarantined is not None:
                self._quarantined = int(quarantined)
            if cache_hits is not None:
                self._cache_hits = int(cache_hits)
            if resumed is not None:
                self._resumed = int(resumed)
            if resident is not None:
                self._resident = int(resident)
        self.beat()

    # -- writing -----------------------------------------------------------

    def snapshot(self, complete: bool = False) -> Heartbeat:
        """The heartbeat record a write issued now would carry."""
        try:
            transport = dict(self._transport_source())
        except Exception:
            # The telemetry plane must not be able to fail a shard.
            transport = {}
        with self._lock:
            now_mono = self._monotonic()
            return Heartbeat(
                shard=self._shard,
                pid=self._pid,
                host=self._host,
                started_at=self._started_at,
                updated_at=self._clock(),
                monotonic=now_mono,
                cells_total=self._total,
                cells_completed=(
                    self._finished
                    if self._completed is None
                    else self._completed
                ),
                cells_quarantined=self._quarantined,
                cache_hits=self._cache_hits,
                resumed=self._resumed,
                resident_high_water=self._resident,
                throughput=self.throughput,
                eta_seconds=self.eta_seconds,
                current_cell=self._current,
                current_cell_seconds=(
                    None
                    if self._current_started is None
                    else max(0.0, now_mono - self._current_started)
                ),
                complete=complete,
                transport=transport,
            )

    def beat(self, force: bool = False) -> bool:
        """Write the sidecar if the throttle allows; returns whether it did."""
        if self._closed:
            return False
        now = self._monotonic()
        if (
            not force
            and self._last_beat is not None
            and now - self._last_beat < self._interval
        ):
            return False
        self._write(complete=False)
        return True

    def close(self, complete: bool = True) -> Path:
        """Final beat (marking completion) and stop writing; idempotent."""
        if not self._closed:
            self._write(complete=complete)
            self._closed = True
        return self._path

    def _write(self, complete: bool) -> None:
        record = self.snapshot(complete=complete).to_json()
        write_atomic(self._path, json.dumps(record, sort_keys=True))
        self._last_beat = self._monotonic()
        self._beats += 1


__all__ = [
    "DEFAULT_HEARTBEAT_INTERVAL",
    "EWMA_ALPHA",
    "HEARTBEAT_VERSION",
    "Heartbeat",
    "HeartbeatWriter",
    "heartbeat_path",
    "read_heartbeat",
]
