"""Parallel campaign runner: scaling on the E9c grid.

Runs the E9c campaign (bounded rings, sizes 8..64) at 1, 2 and 4
workers and writes ``BENCH_parallel.json`` under pytest's base temporary
directory (``--basetemp``; the tracked copy in ``benchmarks/`` is never
rewritten by a test run) as a schema'd
:class:`~repro.bench.BenchReport` (``campaign.scaling`` results keyed
by worker count, ``campaign.streaming`` by runner mode, honest
grid/cpu/target facts in ``meta``).  The seed set is widened
to 16 per cell so the grid carries enough serial work (~1s) to amortize
pool startup -- with E9c's default 3 seeds the whole grid solves in
~0.2s and any pool would lose to its own fork overhead.  Two distinct
claims are checked:

* **determinism** -- the summary table is byte-identical for every
  worker count.  Asserted unconditionally: it must hold on any host.
* **speedup** -- 4 workers must finish the grid at least 2x faster than
  1 worker.  That is a statement about *hardware*, not just code: a
  process pool cannot beat the serial run on a single-CPU container
  (measured 0.94x there -- pool overhead with no parallelism to buy).
  The assertion therefore engages only when the host exposes >= 4
  effective CPUs (CI runners do); on smaller hosts the honest
  measurement is still recorded with ``target_met``/``reason`` fields.
"""

import os
import time

import pytest

from repro.bench import (
    BenchReport,
    BenchResult,
    EnvFingerprint,
    SampleStats,
    read_bench_report,
    validate_bench_file,
    write_bench_report,
)
from repro.experiments.common import e9c_campaign

SPEEDUP_TARGET = 2.0
WORKER_COUNTS = (1, 2, 4)


@pytest.fixture
def bench_path(tmp_path_factory):
    """One ``BENCH_parallel.json`` per session, in the base temp dir."""
    return tmp_path_factory.getbasetemp() / "BENCH_parallel.json"


def _effective_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _bench_result(name, params, seconds, cpu_seconds, **extra):
    return BenchResult(
        name=name,
        params=params,
        wall=SampleStats(samples=(seconds,)),
        cpu=SampleStats(samples=(cpu_seconds,)),
        warmup=0,
        extra=extra,
    )


def _merge_into_archive(bench_path, results, meta):
    """Fold new results into ``BENCH_parallel.json`` (one BenchReport).

    The two archiving tests in this module each contribute their own
    result family (``campaign.scaling`` / ``campaign.streaming``); a
    re-run replaces its own family and leaves the other intact.
    """
    if bench_path.exists():
        report = read_bench_report(bench_path)
        report.env = EnvFingerprint.capture()
    else:
        report = BenchReport(
            env=EnvFingerprint.capture(), suite="parallel", results=[]
        )
    replaced = {r.name for r in results}
    report.results = [
        r for r in report.results if r.name not in replaced
    ] + list(results)
    report.meta.update(meta)
    write_bench_report(bench_path, report)
    assert validate_bench_file(bench_path) == len(report.results)


def test_parallel_campaign_scaling(bench_path, capsys):
    campaign, topologies = e9c_campaign(quick=False, seeds=range(16))
    cpus = _effective_cpus()

    runs = []
    tables = {}
    cpu_times = {}
    for workers in WORKER_COUNTS:
        cpu0 = time.process_time()
        outcome = campaign.run_results(topologies, workers=workers)
        cpu_times[workers] = time.process_time() - cpu0
        tables[workers] = campaign.summarize(outcome.results).format()
        runs.append({
            "workers": workers,
            "seconds": outcome.seconds,
            "cells": len(outcome.results),
        })

    # Determinism holds on any host, parallel or not.
    for workers in WORKER_COUNTS[1:]:
        assert tables[workers] == tables[1], (
            f"workers={workers} changed the campaign table"
        )

    serial = runs[0]["seconds"]
    for entry in runs:
        entry["speedup"] = serial / entry["seconds"]
    speedup = runs[-1]["speedup"]
    target_met = speedup >= SPEEDUP_TARGET
    reason = None
    if not target_met and cpus < 4:
        reason = f"cpu_limited ({cpus} effective CPU(s))"

    _merge_into_archive(
        bench_path,
        [
            _bench_result(
                "campaign.scaling",
                {"workers": entry["workers"]},
                entry["seconds"],
                cpu_times[entry["workers"]],
                cells=entry["cells"],
                speedup=entry["speedup"],
            )
            for entry in runs
        ],
        meta={
            "grid": {
                "preset": "e9c",
                "topologies": [t.name for t in topologies],
                "seeds": len(campaign.seeds),
                "cells": len(topologies) * len(campaign.seeds),
            },
            "cpu": {"effective": cpus, "count": os.cpu_count()},
            "speedup_target": SPEEDUP_TARGET,
            "speedup_at_4": speedup,
            "target_met": target_met,
            "reason": reason,
        },
    )

    with capsys.disabled():
        print()
        for entry in runs:
            print(
                f"workers={entry['workers']}  {entry['seconds']:.3f}s  "
                f"speedup {entry['speedup']:.2f}x"
            )
        print(f"effective CPUs: {cpus}  target_met: {target_met}"
              + (f"  ({reason})" if reason else ""))

    if cpus >= 4:
        assert speedup >= SPEEDUP_TARGET, (
            f"4-worker speedup {speedup:.2f}x below "
            f"{SPEEDUP_TARGET}x on a {cpus}-CPU host"
        )


def test_streaming_vs_in_memory(bench_path, tmp_path, capsys):
    """Streaming/bounded-memory cost row for ``BENCH_parallel.json``.

    Same E9c grid, three runner modes: plain in-memory, streaming (JSONL
    sink attached, results still kept) and bounded-memory streaming
    (results dropped after the durable append + aggregation).  The
    summary table must be byte-identical across all three; the archived
    row records what durability and O(1) residency cost in wall-clock.
    """
    campaign, topologies = e9c_campaign(quick=False, seeds=range(16))
    cells = len(topologies) * len(campaign.seeds)

    cpu_times = {}

    def _timed_run(mode, **kwargs):
        cpu0 = time.process_time()
        outcome = campaign.run_results(topologies, workers=1, **kwargs)
        cpu_times[mode] = time.process_time() - cpu0
        return outcome

    in_mem = _timed_run("in_memory")
    streamed = _timed_run("streaming", results_dir=tmp_path / "stream")
    bounded = _timed_run(
        "streaming_bounded",
        results_dir=tmp_path / "bounded", bounded_memory=True,
    )

    from repro.workloads import summarize_groups

    table = campaign.summarize(in_mem.results).format()
    assert campaign.summarize(streamed.results).format() == table
    assert summarize_groups(
        bounded.aggregates, seeds_per_cell=len(campaign.seeds)
    ).format() == table

    # The acceptance claim: bounded-memory residency is O(1), while the
    # in-memory modes hold the whole shard.
    assert streamed.resident_high_water == cells
    assert bounded.resident_high_water <= 2
    assert bounded.results == ()

    rows = [
        {"mode": "in_memory", "seconds": in_mem.seconds,
         "resident_high_water": cells},
        {"mode": "streaming", "seconds": streamed.seconds,
         "resident_high_water": streamed.resident_high_water},
        {"mode": "streaming_bounded", "seconds": bounded.seconds,
         "resident_high_water": bounded.resident_high_water},
    ]
    for row in rows:
        row["cells"] = cells
        row["overhead_vs_in_memory"] = row["seconds"] / in_mem.seconds

    _merge_into_archive(
        bench_path,
        [
            _bench_result(
                "campaign.streaming",
                {"mode": row["mode"]},
                row["seconds"],
                cpu_times[row["mode"]],
                cells=cells,
                resident_high_water=row["resident_high_water"],
                overhead_vs_in_memory=row["overhead_vs_in_memory"],
            )
            for row in rows
        ],
        meta={"table_identical": True},
    )

    with capsys.disabled():
        print()
        for row in rows:
            print(
                f"{row['mode']:<18} {row['seconds']:.3f}s  "
                f"overhead {row['overhead_vs_in_memory']:.2f}x  "
                f"resident<= {row['resident_high_water']}"
            )


def test_cache_resume_is_faster_than_solving(tmp_path):
    campaign, topologies = e9c_campaign(quick=True)
    cold = campaign.run_results(topologies, cache_dir=str(tmp_path))
    warm = campaign.run_results(topologies, cache_dir=str(tmp_path))
    assert cold.cache_misses == len(cold.results)
    assert warm.cache_hits == len(warm.results)
    assert warm.seconds < cold.seconds
    assert [r.fingerprint() for r in warm.results] == [
        r.fingerprint() for r in cold.results
    ]
