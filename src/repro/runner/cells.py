"""Campaign cells: the unit of work of a sharded sweep.

A *cell* is one (scenario builder, topology, seed) point of a campaign
grid.  Cells are independent by construction -- the simulator and the
pipeline key all randomness off the cell's seed -- which is what makes
campaigns embarrassingly parallel.  This module defines

* :class:`CellSpec` -- the identity of a cell (what to run);
* :class:`CellTask` -- a spec plus how to run it (builder callable,
  certification option);
* :class:`CellResult` -- the typed outcome (precision, ``rho_bar``,
  realized spread, per-stage timings, cache provenance) that campaigns
  and :func:`repro.sweep` return instead of ad-hoc tuples;
* :func:`execute_cell` -- run one cell in an isolated telemetry scope
  and return the result together with a picklable metrics snapshot.

Results and snapshots are plain data, so they cross process boundaries
unchanged; the executor (:mod:`repro.runner.executor`) relies on that.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Tuple, Union

from repro.core.optimality import verify_certificate
from repro.core.precision import realized_spread
from repro.core.synchronizer import ClockSynchronizer
from repro.graphs.topology import Topology
from repro.obs.export import _json_safe
from repro.obs.recorder import Recorder, get_recorder, recording
from repro.records import dumps_record, iter_records, write_lines

#: Builds a scenario from (topology, seed) -- same shape as
#: :data:`repro.workloads.campaign.ScenarioBuilder` (not imported here to
#: keep the runner layer free of workload dependencies).
CellBuilder = Callable[[Topology, int], Any]


@dataclass(frozen=True)
class CellSpec:
    """The identity of one campaign cell: builder name, topology, seed."""

    builder: str
    topology: Topology
    seed: int

    @property
    def scenario_key(self) -> str:
        """The cell's scenario coordinate, ``<builder>:<topology>``."""
        return f"{self.builder}:{self.topology.name}"

    @property
    def key(self) -> Tuple[str, str, int]:
        """Hashable identity used for sharding and ordering."""
        return (self.builder, self.topology.name, self.seed)


@dataclass(frozen=True)
class CellTask:
    """A cell plus the options needed to execute it."""

    spec: CellSpec
    build: CellBuilder
    certify: bool = True


@dataclass(frozen=True)
class CellResult:
    """Typed outcome of one executed (or cache-restored) cell.

    ``precision`` is ``A^max`` (``inf`` across components), ``rho_bar``
    the paper's optimality measure of the returned corrections (equal to
    ``precision`` for the optimal pipeline), ``realized`` the actual
    corrected-clock spread of the simulated execution, and ``sound``
    whether the realized spread stayed within the claimed precision.
    ``timings`` holds the engine's per-stage seconds for this cell;
    ``seconds`` is the cell's wall-clock time.  ``backend`` records the
    engine name -- ``numpy`` for every cell now; the field stays so older
    shard files still load.  ``cache_hit`` marks results restored from
    the content-addressed cache (their timings are the original run's).
    ``degraded`` marks results the pipeline produced in degraded mode
    (fault-injected runs with isolated processors or root substitutions;
    see :class:`~repro.core.synchronizer.DegradedResult`).
    """

    scenario: str
    topology: str
    seed: int
    precision: float
    rho_bar: float
    realized: float
    sound: bool
    backend: str
    seconds: float
    timings: Dict[str, float] = field(default_factory=dict)
    cache_hit: bool = False
    degraded: bool = False

    def fingerprint(self) -> Tuple[str, str, int, float, float, float, bool]:
        """The deterministic part of the result (no wall-clock fields).

        Two runs of the same campaign -- whatever the worker count,
        sharding or caching -- must agree on this tuple exactly.
        """
        return (
            self.scenario,
            self.topology,
            self.seed,
            self.precision,
            self.rho_bar,
            self.realized,
            self.sound,
        )

    def to_json(self) -> Dict[str, Any]:
        """One JSON-clean record, following the obs export conventions.

        Non-finite floats are rendered as strings (``'inf'``), matching
        :mod:`repro.obs.export`; the record is tagged with a ``type`` so
        JSONL consumers can interleave cell records with other telemetry.
        """
        return {
            "type": "campaign.cell",
            "scenario": self.scenario,
            "topology": self.topology,
            "seed": self.seed,
            "precision": _json_safe(self.precision),
            "rho_bar": _json_safe(self.rho_bar),
            "realized": _json_safe(self.realized),
            "sound": self.sound,
            "backend": self.backend,
            "seconds": self.seconds,
            "timings": {k: v for k, v in sorted(self.timings.items())},
            "cache_hit": self.cache_hit,
            "degraded": self.degraded,
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "CellResult":
        """Rebuild a result from :meth:`to_json` output."""
        if data.get("type") != "campaign.cell":
            raise ValueError(
                f"not a campaign.cell record: type={data.get('type')!r}"
            )

        def number(value: Any) -> float:
            return float(value)  # float('inf') parses the exported 'inf'

        return cls(
            scenario=data["scenario"],
            topology=data["topology"],
            seed=int(data["seed"]),
            precision=number(data["precision"]),
            rho_bar=number(data["rho_bar"]),
            realized=number(data["realized"]),
            sound=bool(data["sound"]),
            backend=data["backend"],
            seconds=float(data["seconds"]),
            timings={k: float(v) for k, v in data.get("timings", {}).items()},
            cache_hit=bool(data.get("cache_hit", False)),
            degraded=bool(data.get("degraded", False)),
        )

    def as_cache_hit(self) -> "CellResult":
        """A copy marked as restored from the result cache."""
        return replace(self, cache_hit=True)


@dataclass(frozen=True)
class CellOutcome:
    """What one executed cell sends back: result + metrics snapshot."""

    result: CellResult
    metrics: Dict[str, dict]


def execute_cell(task: CellTask) -> CellOutcome:
    """Run one cell under an isolated recorder and collect everything.

    The cell gets its own :class:`~repro.obs.recorder.Recorder` so its
    metrics (``sim.*``, ``pipeline.*``, ``engine.*``) are attributable
    and mergeable per cell; when an ambient recorder is enabled in this
    process, its observers (e.g. monitor suites) are forwarded so
    in-process runs stay theorem-checked.  Returns the typed result plus
    the registry snapshot for the parent to merge.
    """
    spec = task.spec
    started = time.perf_counter()
    scenario = task.build(spec.topology, spec.seed)
    ambient = get_recorder()
    recorder = Recorder()
    if ambient.enabled and ambient.observers:
        recorder.observers = list(ambient.observers)
    with recording(recorder):
        alpha = scenario.run()
        synchronizer = ClockSynchronizer(scenario.system)
        result = synchronizer.from_execution(alpha)
        if task.certify:
            verify_certificate(result)
        timings = dict(synchronizer.engine.stats.timings)
    spread = realized_spread(alpha.start_times(), result.corrections)
    sound = True
    if not math.isinf(result.precision):
        sound = spread <= result.precision + 1e-9
    cell = CellResult(
        scenario=spec.builder,
        topology=spec.topology.name,
        seed=spec.seed,
        precision=result.precision,
        rho_bar=result.guaranteed_rho_bar(),
        realized=spread,
        sound=sound,
        backend=synchronizer.backend,
        seconds=time.perf_counter() - started,
        timings=timings,
        degraded=result.is_degraded,
    )
    return CellOutcome(result=cell, metrics=recorder.registry.snapshot())


def write_cell_results_jsonl(
    path: Union[str, Path], results: Iterable[CellResult]
) -> Path:
    """Write cell results as JSONL (one ``campaign.cell`` record per line)."""
    return write_lines(path, (dumps_record(r.to_json()) for r in results))


def validate_cell_results_file(path: Union[str, Path]) -> int:
    """Re-read a cell-results JSONL file; returns the record count.

    CI-grade check mirroring the obs validators: every line must parse
    (:func:`repro.records.iter_records`), round-trip through
    :class:`CellResult`, and carry finite-or-'inf' numerics.
    """
    count = 0
    for line_number, data in iter_records(path):
        try:
            CellResult.from_json(data)
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(
                f"{path}:{line_number}: invalid cell record: {exc}"
            ) from exc
        count += 1
    return count


__all__ = [
    "CellBuilder",
    "CellOutcome",
    "CellResult",
    "CellSpec",
    "CellTask",
    "execute_cell",
    "validate_cell_results_file",
    "write_cell_results_jsonl",
]
