"""Top-level facade: :func:`repro.run` and :func:`repro.sweep`.

Two documented entry points cover the common uses of the library:

* :func:`run` -- synchronize **one** source of views against a system
  and get the full :class:`~repro.core.synchronizer.SyncResult`
  (corrections, ``A^max`` precision, components, offset intervals),
  certified optimal by default.  The ``source`` may be a recorded
  :class:`~repro.model.execution.Execution`, a views mapping, a
  simulator :class:`~repro.workloads.scenarios.Scenario`, a live
  :class:`~repro.live.trace.ProbeLog`, or a path to an archived trace
  or probe log -- sim and live traffic flow through the same pipeline
  (see :func:`repro.session.resolve_source`);
* :func:`sweep` -- run a whole (builders x topologies x seeds) grid on
  the sharded campaign runner and get one summary
  :class:`~repro.analysis.reporting.Table`, optionally parallel
  (``workers=4``), sharded (``shard="1/4"``) and cached
  (``cache_dir=...``).

Cross-cutting configuration (workers, certification, fault plan,
observability) lives in one typed object: pass
``session=``:class:`repro.session.Session` instead of repeating the
kwargs; explicit keyword arguments still win over the session's fields.

Everything the facade does is available a layer down
(:class:`~repro.core.synchronizer.ClockSynchronizer`,
:class:`~repro.workloads.campaign.Campaign`) for callers that need the
intermediate artifacts.  All options are keyword-only by policy
(DESIGN.md section 9).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence, Tuple, Union

from repro._types import ProcessorId
from repro.analysis.reporting import Table
from repro.core.optimality import verify_certificate
from repro.core.synchronizer import ClockSynchronizer, SyncResult
from repro.delays.system import System
from repro.graphs.topology import Topology
from repro.model.execution import Execution
from repro.model.views import View
from repro.runner.sharding import Shard
from repro.session import Session, resolve_source

#: ``sweep`` accepts builders as a name->builder mapping or (name, builder)
#: pairs; builders have the :data:`repro.workloads.campaign.ScenarioBuilder`
#: shape.
Builders = Union[
    Mapping[str, object], Iterable[Tuple[str, object]]
]

#: Anything :func:`run` accepts as its views source.
Source = Union[Execution, Mapping[ProcessorId, View], object, str]


def run(
    system: System,
    source: Optional[Source] = None,
    *,
    session: Optional[Session] = None,
    certify: Optional[bool] = None,
    root: Optional[ProcessorId] = None,
) -> SyncResult:
    """Synchronize one source of views optimally; the library's front door.

    ``source`` is anything :func:`repro.session.resolve_source`
    understands: a recorded :class:`~repro.model.execution.Execution`
    (only its views are consulted, per Claim 3.1), the views mapping
    itself, a :class:`~repro.workloads.scenarios.Scenario` (simulated
    once), a live :class:`~repro.live.trace.ProbeLog`, or a path to an
    archived trace / probe log.  With ``certify=True`` (the default)
    the result's optimality certificate is verified before returning --
    a :class:`~repro.core.optimality.CertificateError` here means a
    bug, never bad luck.
    """
    if source is None:
        raise TypeError("repro.run() needs a source of views")
    cfg = session if session is not None else Session()
    root = root if root is not None else cfg.root
    certify = (
        certify
        if certify is not None
        else (cfg.certify if cfg.certify is not None else True)
    )
    views = resolve_source(source, processors=system.processors)
    result = ClockSynchronizer(system, root=root).from_views(views)
    if certify:
        verify_certificate(result)
    return result


def sweep(
    builders: Builders,
    topologies: Sequence[Topology],
    *,
    seeds: Iterable[int] = (0, 1, 2),
    session: Optional[Session] = None,
    certify: Optional[bool] = None,
    workers: Optional[int] = None,
    shard: Union[Shard, str, None] = None,
    cache_dir: Optional[str] = None,
    results_dir: Optional[str] = None,
    executor: Optional[str] = None,
) -> Table:
    """Run a campaign grid and summarise it as one table.

    The grid is (builders x topologies x seeds); every cell simulates,
    synchronizes and (by default) certifies one execution.  ``workers``
    fans cells out over a process pool (``executor="async"`` overlaps
    them on an event loop instead, for I/O-bound cells), ``shard="i/m"``
    runs one deterministic slice of the grid, and ``cache_dir`` skips
    cells an earlier run already solved.  ``results_dir`` streams every
    completed cell to a durable JSONL shard as it finishes, making the
    invocation resumable after a crash and its output mergeable with
    other shards via ``repro campaign merge`` (see
    :mod:`repro.runner.merge`).  The table is byte-identical for any
    worker count, and the union of all shards equals the full sweep.

    ``session=`` supplies defaults for ``workers``, ``certify`` and the
    per-cell fault plan; explicit keywords win.
    """
    from repro.workloads.campaign import Campaign

    cfg = session if session is not None else Session()
    workers = workers if workers is not None else cfg.workers
    certify = (
        certify
        if certify is not None
        else (cfg.certify if cfg.certify is not None else True)
    )
    campaign = Campaign(seeds=seeds, certify=certify)
    items = (
        builders.items() if isinstance(builders, Mapping) else builders
    )
    for name, builder in items:
        campaign.add(name, builder)  # type: ignore[arg-type]
    faults = cfg.fault_plan()
    if faults is not None:
        campaign = campaign.with_faults(faults)
    return campaign.run(
        topologies,
        workers=workers,
        shard=shard,
        cache_dir=cache_dir,
        results_dir=results_dir,
        executor=executor,
    )


__all__ = ["run", "sweep"]
