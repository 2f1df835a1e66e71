"""Fleet status: fuse manifests + heartbeats + stream tails per shard.

:mod:`repro.runner.heartbeat` writes per-shard liveness sidecars and
:mod:`repro.runner.sink` writes durable manifests/streams; this module
is the read side that answers the operator's question -- *is the fleet
healthy, and when will it finish?* -- without touching the shard
processes themselves.

For every ``manifest-i-of-m.json`` found, :func:`shard_status` fuses
three evidence sources, in decreasing order of fidelity:

1. the **heartbeat** sidecar (progress counters, EWMA throughput, ETA,
   current cell, pid/host) -- its age is computed from the *monotonic*
   reading when the reader is plausibly on the writer's clock, falling
   back to wall-clock across machines;
2. the **manifest** ``updated_at`` stamp (written on every atomic
   replace since PR 7);
3. the **stream mtime** -- the only liveness evidence a pre-heartbeat
   shard leaves behind, since every completed cell appends a line.

The verdict ladder per shard: ``complete`` > ``dead`` (heartbeat pid no
longer exists on this host) > ``stalled`` (evidence age exceeds
``stall_after``) > ``running`` > ``unknown`` (unreadable manifest).  A
SIGSTOP'd or hung shard still *has* a live pid, which is why age -- not
pid liveness -- is the primary signal: beats are event-driven, so a
shard that stops making progress stops beating.

:func:`collect_fleet_status` aggregates shards into a
:class:`FleetStatus` (totals, ETA = max over shards, grid gap count),
which backs ``campaign status`` / ``campaign watch`` in the CLI and the
``/healthz`` payload in :mod:`repro.obs.http`.
"""

from __future__ import annotations

import os
import socket
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.runner.heartbeat import Heartbeat, heartbeat_path, read_heartbeat
from repro.runner.merge import find_manifests
from repro.runner.sink import load_manifest

#: Heartbeat/evidence age (seconds) beyond which a shard counts as stalled.
DEFAULT_STALL_AFTER = 30.0

#: Max |monotonic age - wall age| before the monotonic reading is
#: presumed to come from a different boot (other machine, reboot) and
#: the wall-clock age is used instead.
_CLOCK_AGREEMENT_SLACK = 120.0

STATE_COMPLETE = "complete"
STATE_RUNNING = "running"
STATE_STALLED = "stalled"
STATE_DEAD = "dead"
STATE_UNKNOWN = "unknown"

#: States that do not require operator attention.
HEALTHY_STATES = frozenset({STATE_COMPLETE, STATE_RUNNING})


@dataclass(frozen=True)
class ShardStatus:
    """One shard's fused verdict (see module docstring for the ladder)."""

    manifest: str
    shard: Tuple[int, int]
    state: str
    cells_own: int
    cells_completed: int
    cells_quarantined: int
    age_seconds: Optional[float]
    throughput: Optional[float]
    eta_seconds: Optional[float]
    current_cell: Optional[Tuple[str, str, int]]
    current_cell_seconds: Optional[float]
    pid: Optional[int]
    host: Optional[str]
    source: str  # "heartbeat" | "manifest" | "stream" | "none"
    #: reliable-transport counter totals from the shard's heartbeat
    #: (empty for raw-path or pre-transport shards).
    transport: Mapping[str, float] = field(default_factory=dict)

    @property
    def cells_remaining(self) -> int:
        return max(
            0, self.cells_own - self.cells_completed - self.cells_quarantined
        )

    @property
    def healthy(self) -> bool:
        return self.state in HEALTHY_STATES

    def to_json(self) -> dict:
        return {
            "manifest": self.manifest,
            "shard": list(self.shard),
            "state": self.state,
            "cells_own": self.cells_own,
            "cells_completed": self.cells_completed,
            "cells_quarantined": self.cells_quarantined,
            "cells_remaining": self.cells_remaining,
            "age_seconds": self.age_seconds,
            "throughput": self.throughput,
            "eta_seconds": self.eta_seconds,
            "current_cell": (
                None if self.current_cell is None else list(self.current_cell)
            ),
            "current_cell_seconds": self.current_cell_seconds,
            "pid": self.pid,
            "host": self.host,
            "source": self.source,
            "transport": dict(self.transport),
        }


@dataclass(frozen=True)
class FleetStatus:
    """The aggregated fleet verdict ``campaign status`` renders."""

    shards: Tuple[ShardStatus, ...]
    stall_after: float
    grid_cells: int
    gap_cells: int

    @property
    def complete(self) -> bool:
        return bool(self.shards) and all(
            s.state == STATE_COMPLETE for s in self.shards
        )

    @property
    def healthy(self) -> bool:
        """No shard is stalled, dead, or unreadable."""
        return all(s.healthy for s in self.shards)

    @property
    def attention(self) -> Tuple[ShardStatus, ...]:
        """The shards an operator needs to look at."""
        return tuple(s for s in self.shards if not s.healthy)

    @property
    def cells_own(self) -> int:
        return sum(s.cells_own for s in self.shards)

    @property
    def cells_completed(self) -> int:
        return sum(s.cells_completed for s in self.shards)

    @property
    def cells_quarantined(self) -> int:
        return sum(s.cells_quarantined for s in self.shards)

    @property
    def eta_seconds(self) -> Optional[float]:
        """The fleet finishes when its slowest shard does."""
        etas = [s.eta_seconds for s in self.shards if s.eta_seconds is not None]
        return max(etas) if etas else None

    @property
    def transport(self) -> Dict[str, float]:
        """Fleet-wide reliable-transport totals (summed over shards)."""
        totals: Dict[str, float] = {}
        for shard in self.shards:
            for name, value in shard.transport.items():
                totals[name] = totals.get(name, 0.0) + value
        return totals

    def to_json(self) -> dict:
        return {
            "type": "campaign.fleet.status",
            "stall_after": self.stall_after,
            "healthy": self.healthy,
            "complete": self.complete,
            "grid_cells": self.grid_cells,
            "gap_cells": self.gap_cells,
            "cells_own": self.cells_own,
            "cells_completed": self.cells_completed,
            "cells_quarantined": self.cells_quarantined,
            "eta_seconds": self.eta_seconds,
            "transport": self.transport,
            "shards": [s.to_json() for s in self.shards],
        }

    def health_json(self) -> dict:
        """The compact summary ``/healthz`` serves."""
        return {
            "status": (
                "complete"
                if self.complete
                else ("ok" if self.healthy else "degraded")
            ),
            "healthy": self.healthy,
            "shards": len(self.shards),
            "attention": [
                {"shard": list(s.shard), "state": s.state}
                for s in self.attention
            ],
            "cells_completed": self.cells_completed,
            "cells_own": self.cells_own,
            "cells_quarantined": self.cells_quarantined,
            "eta_seconds": self.eta_seconds,
            "transport": self.transport,
        }


def _pid_alive(pid: Optional[int], host: Optional[str]) -> Optional[bool]:
    """Whether the shard process exists; ``None`` when unknowable.

    Only decidable when the heartbeat was written on this machine --
    a pid on another host cannot be probed, and a reused pid is merely
    a false "alive", which the age ladder still catches as a stall.
    """
    if pid is None or host is None or host != socket.gethostname():
        return None
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    except OSError:
        return None
    return True


def _heartbeat_age(
    heartbeat: Heartbeat,
    clock: Callable[[], float],
    monotonic: Callable[[], float],
) -> float:
    """Seconds since the last beat, preferring the monotonic reading."""
    wall_age = max(0.0, clock() - heartbeat.updated_at)
    mono_age = monotonic() - heartbeat.monotonic
    if mono_age >= 0 and abs(mono_age - wall_age) <= _CLOCK_AGREEMENT_SLACK:
        return mono_age
    return wall_age


def shard_status(
    manifest_path: Union[str, Path],
    *,
    stall_after: float = DEFAULT_STALL_AFTER,
    clock: Callable[[], float] = time.time,
    monotonic: Callable[[], float] = time.monotonic,
) -> ShardStatus:
    """Fuse one shard's manifest, heartbeat, and stream tail."""
    path = Path(manifest_path)
    try:
        manifest = load_manifest(path)
    except ValueError:  # status never raises on one bad shard
        return ShardStatus(
            manifest=str(path),
            shard=(0, 0),
            state=STATE_UNKNOWN,
            cells_own=0,
            cells_completed=0,
            cells_quarantined=0,
            age_seconds=None,
            throughput=None,
            eta_seconds=None,
            current_cell=None,
            current_cell_seconds=None,
            pid=None,
            host=None,
            source="none",
        )

    shard = (int(manifest["shard"][0]), int(manifest["shard"][1]))
    own = len(manifest.get("own", []))
    markers = manifest.get("completed", {})
    manifest_quarantined = sum(
        1 for marker in markers.values() if marker == "quarantined"
    )
    manifest_completed = len(markers) - manifest_quarantined

    heartbeat = read_heartbeat(heartbeat_path(path.parent, shard))
    if heartbeat is not None and heartbeat.shard != shard:
        heartbeat = None  # stale sidecar from a different shard layout

    if heartbeat is not None:
        completed = heartbeat.cells_completed
        quarantined = heartbeat.cells_quarantined
        age = _heartbeat_age(heartbeat, clock, monotonic)
        complete = heartbeat.complete or bool(manifest.get("complete"))
        if complete:
            state = STATE_COMPLETE
        elif _pid_alive(heartbeat.pid, heartbeat.host) is False:
            state = STATE_DEAD
        elif age > stall_after:
            state = STATE_STALLED
        else:
            state = STATE_RUNNING
        return ShardStatus(
            manifest=str(path),
            shard=shard,
            state=state,
            cells_own=own,
            cells_completed=completed,
            cells_quarantined=quarantined,
            age_seconds=age,
            throughput=heartbeat.throughput,
            eta_seconds=heartbeat.eta_seconds,
            current_cell=heartbeat.current_cell,
            current_cell_seconds=heartbeat.current_cell_seconds,
            pid=heartbeat.pid,
            host=heartbeat.host,
            source="heartbeat",
            transport=dict(heartbeat.transport),
        )

    # No heartbeat (pre-PR-7 shard, or sidecar lost): fall back to the
    # manifest stamp and the stream's mtime -- every completed cell
    # appends a line, so the stream mtime tracks actual progress.
    evidence: List[Tuple[float, str]] = []
    if isinstance(manifest.get("updated_at"), (int, float)):
        evidence.append((float(manifest["updated_at"]), "manifest"))
    stream = path.parent / manifest.get("data", "")
    try:
        evidence.append((stream.stat().st_mtime, "stream"))
    except OSError:
        pass
    age: Optional[float] = None
    source = "manifest"
    if evidence:
        stamp, source = max(evidence)  # the most recent sign of life
        age = max(0.0, clock() - stamp)

    if manifest.get("complete"):
        state = STATE_COMPLETE
    elif age is None:
        state = STATE_UNKNOWN
    elif age > stall_after:
        state = STATE_STALLED
    else:
        state = STATE_RUNNING
    return ShardStatus(
        manifest=str(path),
        shard=shard,
        state=state,
        cells_own=own,
        cells_completed=manifest_completed,
        cells_quarantined=manifest_quarantined,
        age_seconds=age,
        throughput=None,
        eta_seconds=None,
        current_cell=None,
        current_cell_seconds=None,
        pid=None,
        host=None,
        source=source,
    )


def collect_fleet_status(
    paths: Sequence[Union[str, Path]],
    *,
    stall_after: float = DEFAULT_STALL_AFTER,
    clock: Callable[[], float] = time.time,
    monotonic: Callable[[], float] = time.monotonic,
) -> FleetStatus:
    """Fuse every shard found under ``paths`` into one fleet verdict.

    ``paths`` are results directories and/or explicit manifest files,
    exactly as ``campaign merge`` accepts them.  Raises
    :class:`~repro.runner.merge.MergeError` when no manifests exist at
    all -- before the first shard starts there is nothing to watch.
    """
    manifest_paths = find_manifests(paths)
    shards = [
        shard_status(
            p, stall_after=stall_after, clock=clock, monotonic=monotonic
        )
        for p in manifest_paths
    ]

    # Grid coverage: cells no shard owns are gaps-in-waiting -- the
    # merge would report them, but the operator wants to know *now*.
    grid_cells = 0
    owned: set = set()
    for path, status in zip(manifest_paths, shards):
        if status.state == STATE_UNKNOWN:
            continue
        try:
            manifest = load_manifest(path)
        except ValueError:
            continue
        grid_cells = max(grid_cells, len(manifest.get("grid", [])))
        owned.update(int(i) for i in manifest.get("own", []))
    gap_cells = max(0, grid_cells - len(owned))

    return FleetStatus(
        shards=tuple(shards),
        stall_after=stall_after,
        grid_cells=grid_cells,
        gap_cells=gap_cells,
    )


def _fmt_seconds(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value >= 3600:
        return f"{value / 3600:.1f}h"
    if value >= 60:
        return f"{value / 60:.1f}m"
    return f"{value:.1f}s"


def _fmt_rate(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.2f}/s"


def fleet_status_lines(fleet: FleetStatus) -> List[str]:
    """Render the operator table ``campaign status``/``watch`` print."""
    header = (
        "shard", "state", "done", "quar", "rate", "eta", "age", "cell"
    )
    rows: List[Tuple[str, ...]] = [header]
    for status in fleet.shards:
        index, count = status.shard
        cell = "-"
        if status.current_cell is not None:
            builder, topology, seed = status.current_cell
            cell = f"{builder}:{topology} seed={seed}"
            if status.current_cell_seconds is not None:
                cell += f" ({_fmt_seconds(status.current_cell_seconds)})"
        rows.append(
            (
                f"{index}/{count}",
                status.state,
                f"{status.cells_completed}/{status.cells_own}",
                str(status.cells_quarantined),
                _fmt_rate(status.throughput),
                _fmt_seconds(status.eta_seconds),
                _fmt_seconds(status.age_seconds),
                cell,
            )
        )
    widths = [
        max(len(row[col]) for row in rows) for col in range(len(header))
    ]
    lines = [
        "  ".join(value.ljust(width) for value, width in zip(row, widths)).rstrip()
        for row in rows
    ]
    summary = (
        f"fleet: {fleet.cells_completed}/{fleet.cells_own} cells, "
        f"{fleet.cells_quarantined} quarantined"
    )
    if fleet.gap_cells:
        summary += f", {fleet.gap_cells} grid cell(s) unowned"
    transport = fleet.transport
    if transport:
        summary += (
            f", transport: {transport.get('transport.retransmits', 0):.0f} "
            f"retransmit(s), {transport.get('transport.give_ups', 0):.0f} "
            f"give-up(s)"
        )
    if fleet.eta_seconds is not None and not fleet.complete:
        summary += f", eta {_fmt_seconds(fleet.eta_seconds)}"
    if fleet.complete:
        summary += " -- complete"
    elif not fleet.healthy:
        states = ", ".join(
            f"{s.shard[0]}/{s.shard[1]} {s.state}" for s in fleet.attention
        )
        summary += f" -- ATTENTION: {states}"
    lines.append(summary)
    return lines


def fleet_health(results_dir: Union[str, Path, None]):
    """A ``/healthz`` provider for one campaign's results directory.

    Returns the zero-arg callable
    :func:`repro.obs.http.serve_telemetry` consumes (``campaign run
    --serve-metrics`` wires it in).  Reads the run's own results
    directory per probe; before the first manifest lands (or without a
    results directory at all) it reports ``starting``/``running``
    rather than failing the probe.
    """
    def health() -> dict:
        if results_dir is None:
            return {"status": "running", "healthy": True}
        from repro.runner.merge import MergeError

        try:
            fleet = collect_fleet_status([str(results_dir)])
        except (MergeError, OSError):
            return {"status": "starting", "healthy": True}
        return fleet.health_json()

    return health


__all__ = [
    "DEFAULT_STALL_AFTER",
    "HEALTHY_STATES",
    "STATE_COMPLETE",
    "STATE_DEAD",
    "STATE_RUNNING",
    "STATE_STALLED",
    "STATE_UNKNOWN",
    "FleetStatus",
    "ShardStatus",
    "collect_fleet_status",
    "fleet_health",
    "fleet_status_lines",
    "shard_status",
]
