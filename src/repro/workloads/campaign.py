"""Campaigns: parameter sweeps over scenarios, summarised in one table.

Experiments E1..E14 are fixed narratives; a *campaign* is the ad-hoc
counterpart — "sweep these topologies against these scenario builders
over these seeds and show me the precision statistics".  Used by tests
and handy interactively::

    from repro.workloads import Campaign, bounded_uniform, round_trip_bias
    from repro.graphs import ring, grid

    campaign = Campaign(seeds=range(5))
    campaign.add("bounded", lambda t, s: bounded_uniform(t, 1.0, 3.0, seed=s))
    campaign.add("bias", lambda t, s: round_trip_bias(t, 0.5, seed=s))
    table = campaign.run([ring(6), grid(3, 3)])
    table.show()

Campaigns execute on the sharded runner of
:mod:`repro.workloads.parallel`: pass ``workers=4`` to fan cells out over
a process pool, ``shard="2/4"`` to run one deterministic quarter of the
grid, and ``cache_dir=...`` to skip cells already solved by an earlier
(or concurrent) run.  The produced tables are byte-identical whatever
the worker count or sharding split — see DESIGN.md section 9.

API policy (DESIGN.md section 9): option arguments are keyword-only.
The one-release ``DeprecationWarning`` positional shims from the PR
that introduced the policy have been removed; positional options now
raise ``TypeError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

from repro.analysis.metrics import summarize
from repro.analysis.reporting import Table
from repro.graphs.topology import Topology
from repro.runner.cells import CellResult, CellSpec, CellTask
from repro.runner.heartbeat import DEFAULT_HEARTBEAT_INTERVAL
from repro.runner.sharding import Shard
from repro.workloads.parallel import CampaignOutcome, run_campaign
from repro.workloads.scenarios import Scenario

#: A named way of building a scenario from (topology, seed).
ScenarioBuilder = Callable[[Topology, int], Scenario]


@dataclass(frozen=True)
class CampaignCell:
    """All runs of one (builder, topology) combination."""

    builder: str
    topology: str
    precisions: Tuple[float, ...]
    realized: Tuple[float, ...]
    certified: bool


def summarize_groups(
    groups: Sequence["CampaignCell"], *, seeds_per_cell: int
) -> Table:
    """The campaign summary table from pre-grouped (builder, topology) cells.

    Accepts anything field-compatible with :class:`CampaignCell`
    (notably :class:`repro.workloads.parallel.GroupAggregate`, the
    bounded-memory runner's aggregate rows), so streamed, merged and
    in-memory campaigns all render through one code path -- which is
    what makes ``campaign merge`` output byte-identical to a
    single-process run.
    """
    table = Table(
        title=f"Campaign ({seeds_per_cell} seeds per cell)",
        headers=[
            "scenario",
            "topology",
            "mean precision",
            "max precision",
            "mean realized",
            "sound",
        ],
    )
    for cell in groups:
        stats = summarize(cell.precisions)
        table.add_row(
            cell.builder,
            cell.topology,
            stats.mean,
            stats.maximum,
            summarize(cell.realized).mean,
            cell.certified,
        )
    table.add_note(
        "sound = realized spread never exceeded the claimed precision "
        "(and every certificate verified)"
    )
    return table


def summarize_results(
    results: Sequence[CellResult], *, seeds_per_cell: int
) -> Table:
    """The campaign summary table for raw cell results (grid order)."""
    return summarize_groups(
        Campaign.group_results(results), seeds_per_cell=seeds_per_cell
    )


class Campaign:
    """A sweep of scenario builders across topologies and seeds."""

    def __init__(
        self,
        *,
        seeds: Iterable[int] = (0, 1, 2),
        certify: bool = True,
    ):
        # Normalize eagerly: ``seeds`` may be a one-shot iterator, and a
        # shared default must never leak mutable state between campaigns.
        self._seeds = tuple(seeds)
        if not self._seeds:
            raise ValueError("campaign needs at least one seed")
        self._builders: List[Tuple[str, ScenarioBuilder]] = []
        self._certify = certify

    @property
    def seeds(self) -> Tuple[int, ...]:
        """The seeds every (builder, topology) cell is run with."""
        return self._seeds

    def add(self, name: str, builder: ScenarioBuilder) -> "Campaign":
        """Register one named scenario family; returns self for chaining."""
        if any(existing == name for existing, _ in self._builders):
            raise ValueError(f"builder {name!r} already registered")
        self._builders.append((name, builder))
        return self

    def with_faults(self, plan) -> "Campaign":
        """A copy of this campaign whose every scenario runs under ``plan``.

        Builders are wrapped with
        :func:`repro.faults.chaos.with_fault_plan`, which keeps them
        picklable for the process-pool runner.  The fault plan is part
        of each cell's cache identity, so faulted and fault-free sweeps
        never share cache entries.
        """
        from repro.faults.chaos import with_fault_plan

        clone = Campaign(seeds=self._seeds, certify=self._certify)
        for name, builder in self._builders:
            clone.add(name, with_fault_plan(builder, plan))
        return clone

    def tasks(self, topologies: Sequence[Topology]) -> List[CellTask]:
        """The full grid as executable cells, in canonical order.

        Canonical order is builders outer, topologies inner, seeds
        innermost — the order :meth:`run` has always reported in.
        """
        if not self._builders:
            raise ValueError("campaign has no scenario builders")
        cells: List[CellTask] = []
        for name, builder in self._builders:
            for topology in topologies:
                for seed in self._seeds:
                    cells.append(
                        CellTask(
                            spec=CellSpec(
                                builder=name, topology=topology, seed=seed
                            ),
                            build=builder,
                            certify=self._certify,
                        )
                    )
        return cells

    def run_results(
        self,
        topologies: Sequence[Topology],
        *,
        workers: Optional[int] = None,
        shard: Union[Shard, str, None] = None,
        cache_dir: Optional[str] = None,
        cell_timeout: Optional[float] = None,
        retries: int = 0,
        retry_backoff: float = 0.0,
        results_dir: Union[str, Path, None] = None,
        bounded_memory: bool = False,
        executor: Optional[str] = None,
        cache_max_entries: Optional[int] = None,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
    ) -> CampaignOutcome:
        """Execute the sweep; returns typed cell results + merged metrics.

        ``cell_timeout``/``retries``/``retry_backoff`` enable the robust
        runner: failing cells are retried and ultimately quarantined on
        the outcome instead of aborting the sweep.  ``results_dir``
        streams every completed cell to a durable JSONL shard (and makes
        the invocation resumable); ``bounded_memory`` additionally drops
        results after streaming them (see
        :func:`~repro.workloads.parallel.run_campaign`).
        """
        return run_campaign(
            self.tasks(topologies),
            workers=workers,
            shard=shard,
            cache_dir=cache_dir,
            cell_timeout=cell_timeout,
            retries=retries,
            retry_backoff=retry_backoff,
            results_dir=results_dir,
            bounded_memory=bounded_memory,
            executor=executor,
            cache_max_entries=cache_max_entries,
            heartbeat_interval=heartbeat_interval,
        )

    def run_cells(
        self,
        topologies: Sequence[Topology],
        *,
        workers: Optional[int] = None,
        shard: Union[Shard, str, None] = None,
        cache_dir: Optional[str] = None,
    ) -> List[CampaignCell]:
        """Execute the full sweep and return per-cell aggregated results.

        One :class:`CampaignCell` per (builder, topology) pair, seeds
        aggregated, in canonical order.  Under sharding, pairs whose
        seeds all live in other shards are omitted.
        """
        outcome = self.run_results(
            topologies,
            workers=workers,
            shard=shard,
            cache_dir=cache_dir,
        )
        return self.group_results(outcome.results)

    @staticmethod
    def group_results(
        results: Sequence[CellResult],
    ) -> List[CampaignCell]:
        """Aggregate per-seed results into per-(builder, topology) cells."""
        grouped: "dict[Tuple[str, str], List[CellResult]]" = {}
        order: List[Tuple[str, str]] = []
        for result in results:
            key = (result.scenario, result.topology)
            if key not in grouped:
                grouped[key] = []
                order.append(key)
            grouped[key].append(result)
        cells: List[CampaignCell] = []
        for builder, topology in order:
            group = grouped[(builder, topology)]
            cells.append(
                CampaignCell(
                    builder=builder,
                    topology=topology,
                    precisions=tuple(r.precision for r in group),
                    realized=tuple(r.realized for r in group),
                    certified=all(r.sound for r in group),
                )
            )
        return cells

    def summarize(self, results: Sequence[CellResult]) -> Table:
        """The campaign summary table for already-computed results."""
        return summarize_results(
            results, seeds_per_cell=len(self._seeds)
        )

    def run(
        self,
        topologies: Sequence[Topology],
        *,
        workers: Optional[int] = None,
        shard: Union[Shard, str, None] = None,
        cache_dir: Optional[str] = None,
        results_dir: Union[str, Path, None] = None,
        bounded_memory: bool = False,
        executor: Optional[str] = None,
        cache_max_entries: Optional[int] = None,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
    ) -> Table:
        """Execute the sweep and summarise it as one table."""
        outcome = self.run_results(
            topologies,
            workers=workers,
            shard=shard,
            cache_dir=cache_dir,
            results_dir=results_dir,
            bounded_memory=bounded_memory,
            executor=executor,
            cache_max_entries=cache_max_entries,
            heartbeat_interval=heartbeat_interval,
        )
        if outcome.aggregates is not None:
            # Bounded-memory run: the results were streamed to disk and
            # dropped; the aggregates carry exactly the table's inputs.
            return summarize_groups(
                outcome.aggregates, seeds_per_cell=len(self._seeds)
            )
        return self.summarize(outcome.results)


__all__ = [
    "Campaign",
    "CampaignCell",
    "CellResult",
    "ScenarioBuilder",
    "summarize_groups",
    "summarize_results",
]
