"""One fold, one decoder: every campaign path renders the same table.

* An in-memory run, a bounded-memory run, a two-shard merge and a
  resumed run of one grid -- with a quarantined cell in it -- produce
  byte-equal tables, and the merge folds the same registry as the run.
* Resume and merge decode shard streams with one rule: a bad record
  followed by a good record for the same index is healed for both, and
  a bad record with nothing after it is re-executed by resume and
  refused by merge.
"""

import json

import pytest

from repro.graphs import line, ring
from repro.runner import (
    CellFailure,
    CellResult,
    MergeError,
    decode_stream,
    merge_shards,
)
from repro.workloads import Campaign, bounded_uniform, summarize_groups

TOPOLOGIES = [ring(4), line(4)]


def bounded_builder(topology, seed):
    return bounded_uniform(topology, lb=1.0, ub=3.0, seed=seed)


def poisoned_builder(topology, seed):
    if topology.name == "line-4" and seed == 1:
        raise RuntimeError("poisoned cell")
    return bounded_uniform(topology, lb=1.0, ub=2.0, seed=seed)


def make_campaign():
    campaign = Campaign(seeds=range(2))
    campaign.add("bounded", bounded_builder)
    campaign.add("poisoned", poisoned_builder)
    return campaign


def table_of(campaign, outcome):
    return summarize_groups(
        outcome.aggregates, seeds_per_cell=len(campaign.seeds)
    ).format()


def deterministic(registry):
    return {
        name: series
        for name, series in registry.snapshot().items()
        if not name.endswith(".seconds")
        # the executor's per-invocation queue shape, never merged
        and name != "campaign.queue.depth"
    }


def cache_counters(registry):
    snapshot = registry.snapshot()
    return tuple(
        snapshot[name]["value"]
        for name in ("campaign.cache.hits", "campaign.cache.misses")
    )


class TestOneTableEveryPath:
    def test_paths_agree_with_a_quarantined_cell(self, tmp_path):
        campaign = make_campaign()
        # cell_timeout turns on the quarantine policy
        options = dict(workers=1, cell_timeout=60.0)
        single = campaign.run_results(TOPOLOGIES, **options)
        assert len(single.quarantined) == 1
        assert single.cells == 7
        reference = table_of(campaign, single)
        assert reference == campaign.summarize(single.results).format()

        bounded = campaign.run_results(
            TOPOLOGIES, results_dir=tmp_path / "bounded",
            bounded_memory=True, **options,
        )
        assert bounded.results == ()
        assert table_of(campaign, bounded) == reference

        for index in (1, 2):
            campaign.run_results(
                TOPOLOGIES, shard=(index, 2),
                results_dir=tmp_path / "fleet", **options,
            )
        merged = merge_shards([tmp_path / "fleet"])
        assert merged.report.complete and merged.report.quarantined == 1
        assert summarize_groups(
            merged.aggregates, seeds_per_cell=merged.seeds_per_cell
        ).format() == reference
        assert deterministic(merged.registry) == deterministic(
            single.registry
        )

        stream_dir = tmp_path / "resume"
        campaign.run_results(TOPOLOGIES, results_dir=stream_dir, **options)
        stream = stream_dir / "shard-1-of-1.jsonl"
        lines = stream.read_bytes().split(b"\n")
        torn = b"\n".join(lines[:-2]) + b"\n" + lines[-2][: len(lines[-2]) // 2]
        stream.write_bytes(torn)
        resumed = campaign.run_results(
            TOPOLOGIES, results_dir=stream_dir, **options
        )
        assert resumed.resumed == 7
        assert table_of(campaign, resumed) == reference


class TestCacheCountersAgree:
    def test_quarantined_cell_is_a_miss_in_run_and_merge(self, tmp_path):
        """A failure record means the cell was executed: the run and a
        merge of its one shard read the same hits and misses, cold and
        with every good cell served from the cache."""
        campaign = make_campaign()
        options = dict(workers=1, cell_timeout=60.0, cache_dir=tmp_path / "c")
        for name, expected in (("cold", (0.0, 8.0)), ("warm", (7.0, 1.0))):
            outcome = campaign.run_results(
                TOPOLOGIES, results_dir=tmp_path / name, **options
            )
            assert len(outcome.quarantined) == 1
            merged = merge_shards([tmp_path / name])
            assert cache_counters(outcome.registry) == expected
            assert cache_counters(merged.registry) == expected


def single_shard(tmp_path):
    campaign = Campaign(seeds=range(2))
    campaign.add("bounded", bounded_builder)
    outcome = campaign.run_results(
        TOPOLOGIES, workers=1, results_dir=tmp_path
    )
    return campaign, outcome, tmp_path / "shard-1-of-1.jsonl"


BAD_RECORD = b'{"index": 2, "type": "campaign.cell"}\n'


class TestOneDecoder:
    def test_bad_record_healed_by_later_good_record(self, tmp_path):
        campaign, first, stream = single_shard(tmp_path)
        stream.write_bytes(BAD_RECORD + stream.read_bytes())

        merged = merge_shards([tmp_path])
        assert merged.report.complete
        assert merged.results == first.results

        resumed = campaign.run_results(
            TOPOLOGIES, workers=1, results_dir=tmp_path
        )
        assert resumed.resumed == 4 and resumed.cache_misses == 0

    def test_trailing_bad_record_reexecuted_and_refused(self, tmp_path):
        campaign, first, stream = single_shard(tmp_path)
        records = [
            line for line in stream.read_bytes().splitlines(keepends=True)
            if json.loads(line)["index"] != 2
        ]
        stream.write_bytes(b"".join(records) + BAD_RECORD)

        with pytest.raises(MergeError, match=r"shard-1-of-1\.jsonl.*index 2"):
            merge_shards([tmp_path])

        resumed = campaign.run_results(
            TOPOLOGIES, workers=1, results_dir=tmp_path
        )
        assert resumed.resumed == 3 and resumed.cache_misses == 1
        assert [r.fingerprint() for r in resumed.results] == [
            r.fingerprint() for r in first.results
        ]
        # the re-executed cell's fresh record supersedes the bad one
        assert merge_shards([tmp_path]).report.complete

    def test_decode_rules(self):
        def cell(index, precision=2.0):
            record = CellResult(
                scenario="bounded", topology="ring-4", seed=index,
                precision=precision, rho_bar=precision, realized=1.0,
                sound=True, backend="python", seconds=0.0,
            ).to_json()
            record["index"] = index
            return record

        def failure(index):
            record = CellFailure(
                scenario="bounded", topology="ring-4", seed=index,
                kind="error", message="boom", attempts=1,
            ).to_json()
            record["index"] = index
            return record

        bad = {"type": "campaign.cell", "index": 0}
        decoded = decode_stream(
            [
                cell(9),                      # out of range
                {"type": "other", "index": 1},  # foreign type
                bad, cell(0, 3.0), cell(0, 4.0),  # later good wins
                failure(1), cell(1),          # success beats failure
                cell(2), failure(2),          # failure after success
                cell(3), bad | {"index": 3},  # trailing bad
            ],
            grid_size=4,
        )
        assert sorted(decoded.results) == [0, 1, 2]
        assert decoded.results[0].precision == 4.0
        assert decoded.failures == {}
        assert list(decoded.bad) == [3]
        assert "index 3" in decoded.bad[3]
