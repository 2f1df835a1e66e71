"""Determinism contract of the sharded parallel campaign runner.

ISSUE requirement: workers=1, workers=4 and the union of ``--shard``
slices must produce byte-identical merged tables and metrics (modulo
wall-clock series).
"""

import json

import pytest

from repro.graphs import line, ring
from repro.obs import Recorder, recording
from repro.workloads import (
    Campaign,
    CampaignOutcome,
    bounded_uniform,
    heterogeneous,
    run_campaign,
)


def bounded_builder(topology, seed):
    return bounded_uniform(topology, lb=1.0, ub=3.0, seed=seed)


def hetero_builder(topology, seed):
    return heterogeneous(topology, seed=seed)


def make_campaign(seeds=range(2)):
    campaign = Campaign(seeds=seeds)
    campaign.add("bounded", bounded_builder)
    campaign.add("hetero", hetero_builder)
    return campaign


TOPOLOGIES = [ring(4), line(4)]


def deterministic_metrics(registry):
    """The registry's snapshot minus wall-clock (``*.seconds``) series."""
    return {
        name: series
        for name, series in registry.snapshot().items()
        if not name.endswith(".seconds")
    }


class TestWorkerCountInvariance:
    def test_tables_byte_identical_across_worker_counts(self):
        campaign = make_campaign()
        table_seq = campaign.run(TOPOLOGIES, workers=1)
        table_pool = campaign.run(TOPOLOGIES, workers=4)
        assert table_pool.format() == table_seq.format()

    def test_metrics_identical_modulo_wall_clock(self):
        campaign = make_campaign()
        seq = campaign.run_results(TOPOLOGIES, workers=1)
        pool = campaign.run_results(TOPOLOGIES, workers=4)
        assert deterministic_metrics(pool.registry) == \
            deterministic_metrics(seq.registry)

    def test_results_identical_and_ordered(self):
        campaign = make_campaign()
        seq = campaign.run_results(TOPOLOGIES, workers=1)
        pool = campaign.run_results(TOPOLOGIES, workers=4)
        assert [r.fingerprint() for r in seq.results] == [
            r.fingerprint() for r in pool.results
        ]
        # canonical grid order: builders outer, topologies, then seeds
        assert [
            (r.scenario, r.topology, r.seed) for r in seq.results
        ] == [
            (name, topo.name, seed)
            for name in ("bounded", "hetero")
            for topo in TOPOLOGIES
            for seed in range(2)
        ]


class TestShardInvariance:
    @pytest.mark.parametrize("count", [2, 4])
    def test_shard_union_equals_full_run(self, count):
        campaign = make_campaign()
        full = campaign.run_results(TOPOLOGIES)
        union = []
        for i in range(1, count + 1):
            part = campaign.run_results(
                TOPOLOGIES, shard=f"{i}/{count}", workers=2
            )
            union.extend(part.results)
        assert sorted(r.fingerprint() for r in union) == sorted(
            r.fingerprint() for r in full.results
        )

    def test_sharded_tables_merge_to_full_table(self):
        campaign = make_campaign()
        full = campaign.run(TOPOLOGIES)
        parts = []
        for i in (1, 2):
            parts.extend(
                campaign.run_results(TOPOLOGIES, shard=f"{i}/2").results
            )
        # regroup in canonical order before summarising
        order = {
            r.fingerprint(): position
            for position, r in enumerate(
                campaign.run_results(TOPOLOGIES).results
            )
        }
        parts.sort(key=lambda r: order[r.fingerprint()])
        assert campaign.summarize(parts).format() == full.format()

    def test_invalid_shard_rejected(self):
        campaign = make_campaign()
        with pytest.raises(ValueError, match="shard"):
            campaign.run_results(TOPOLOGIES, shard="0/2")


class TestCacheResume:
    def test_second_run_is_all_hits_and_identical(self, tmp_path):
        campaign = make_campaign()
        first = campaign.run_results(TOPOLOGIES, cache_dir=str(tmp_path))
        second = campaign.run_results(TOPOLOGIES, cache_dir=str(tmp_path))
        assert first.cache_hits == 0
        assert first.cache_misses == len(first.results)
        assert second.cache_hits == len(second.results)
        assert second.cache_misses == 0
        assert all(r.cache_hit for r in second.results)
        assert [r.fingerprint() for r in second.results] == [
            r.fingerprint() for r in first.results
        ]
        assert campaign.summarize(second.results).format() == \
            campaign.summarize(first.results).format()

    def test_cache_bound_evicts_and_counts(self, tmp_path):
        campaign = make_campaign()
        outcome = campaign.run_results(
            TOPOLOGIES, cache_dir=str(tmp_path), cache_max_entries=3
        )
        # 8 cells through a 3-entry bound: 5 LRU evictions, counted
        assert outcome.cache_evicted == 5
        assert len(list(tmp_path.glob("*.json"))) == 3
        snapshot = outcome.registry.snapshot()
        assert snapshot["campaign.cache.evicted"]["value"] == 5.0
        assert outcome.summary()["cache_evicted"] == 5

    def test_sharded_runs_share_one_cache(self, tmp_path):
        campaign = make_campaign()
        for i in (1, 2):
            campaign.run_results(
                TOPOLOGIES, shard=f"{i}/2", cache_dir=str(tmp_path)
            )
        resumed = campaign.run_results(TOPOLOGIES, cache_dir=str(tmp_path))
        assert resumed.cache_hits == len(resumed.results)
        assert resumed.cache_misses == 0

    def test_cache_does_not_leak_across_campaign_options(self, tmp_path):
        certified = Campaign(seeds=range(1))
        certified.add("bounded", bounded_builder)
        uncertified = Campaign(seeds=range(1), certify=False)
        uncertified.add("bounded", bounded_builder)
        certified.run_results([ring(4)], cache_dir=str(tmp_path))
        outcome = uncertified.run_results([ring(4)], cache_dir=str(tmp_path))
        assert outcome.cache_hits == 0  # different certify => different key


class TestCampaignOutcome:
    def test_outcome_summary_and_engine_stats(self):
        campaign = make_campaign()
        outcome = campaign.run_results(TOPOLOGIES, workers=1)
        assert isinstance(outcome, CampaignOutcome)
        summary = outcome.summary()
        assert summary["cells"] == len(outcome.results) == 8
        assert summary["workers"] == 1
        assert summary["shard"] is None
        assert outcome.engine_stats.timings  # merged per-stage seconds
        counters = outcome.registry
        assert counters.get("campaign.cells.total").value == 8
        assert counters.get("campaign.cache.misses").value == 8

    def test_queue_depth_and_latency_histograms_recorded(self):
        campaign = make_campaign()
        outcome = campaign.run_results(TOPOLOGIES)
        depth = outcome.registry.get("campaign.queue.depth")
        latency = outcome.registry.get("campaign.cell.seconds")
        assert depth is not None and depth.count == 8
        assert latency is not None and latency.count == 8

    def test_results_serialize_to_jsonl(self, tmp_path):
        from repro.runner import (
            validate_cell_results_file,
            write_cell_results_jsonl,
        )

        outcome = make_campaign().run_results(TOPOLOGIES)
        path = write_cell_results_jsonl(
            tmp_path / "cells.jsonl", outcome.results
        )
        assert validate_cell_results_file(path) == len(outcome.results)
        record = json.loads(path.read_text().splitlines()[0])
        assert record["type"] == "campaign.cell"


class TestAmbientTelemetry:
    def test_campaign_metrics_reach_ambient_recorder(self):
        recorder = Recorder()
        with recording(recorder):
            run_campaign(
                make_campaign().tasks(TOPOLOGIES), workers=1
            )
        names = set(recorder.registry.names())
        assert "campaign.cells.total" in names
        assert "campaign.cell.seconds" in names
        assert any(n.startswith("engine.") for n in names)
        spans = {s.name for s in recorder.tracer.finished()}
        assert "campaign.run" in spans
        assert "campaign.execute" in spans

    def test_noop_recorder_costs_nothing(self):
        # No ambient recorder: run_campaign must not install one.
        from repro.obs import NOOP, get_recorder

        outcome = make_campaign().run_results(TOPOLOGIES)
        assert get_recorder() is NOOP
        assert outcome.results


class TestLegacyCompat:
    def test_run_cells_matches_group_results(self):
        campaign = make_campaign()
        cells = campaign.run_cells(TOPOLOGIES)
        regrouped = campaign.group_results(
            campaign.run_results(TOPOLOGIES).results
        )
        assert cells == regrouped
        assert all(len(c.precisions) == 2 for c in cells)
        assert all(c.certified for c in cells)
