"""Merge pipeline: fusing shard streams back into the canonical run.

ISSUE acceptance: ``campaign merge`` over N shard outputs is
byte-identical to the single-process table, and gap/overlap detection
is verified by deleting and duplicating shard cells.
"""

import json

import pytest

from repro.cli import main as cli_main
from repro.graphs import line, ring
from repro.runner import (
    CellFailure,
    MergeError,
    ResultSink,
    find_manifests,
    merge_shards,
)
from repro.workloads import (
    Campaign,
    bounded_uniform,
    heterogeneous,
    summarize_groups,
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


@pytest.fixture(scope="module")
def sharded(tmp_path_factory):
    """One campaign run as two shards into a shared results_dir."""
    results_dir = tmp_path_factory.mktemp("fleet")
    campaign = make_campaign()
    outcomes = [
        campaign.run_results(
            TOPOLOGIES, workers=1, shard=(i, 2), results_dir=results_dir
        )
        for i in (1, 2)
    ]
    reference = campaign.run_results(TOPOLOGIES, workers=1)
    return results_dir, outcomes, reference, campaign


def stream_lines(results_dir, shard):
    path = results_dir / f"shard-{shard}-of-2.jsonl"
    return path, [l for l in path.read_bytes().split(b"\n") if l.strip()]


def cell_key_of(line_bytes):
    record = json.loads(line_bytes)
    return (record["scenario"], record["topology"], record["seed"])


class TestMergeFusesShards:
    def test_table_byte_identical_to_single_run(self, sharded):
        results_dir, outcomes, reference, campaign = sharded
        assert sum(o.cells for o in outcomes) == 8
        merged = merge_shards([results_dir])
        assert merged.report.complete
        assert merged.report.cells == 8
        assert not merged.report.overlaps
        table = summarize_groups(
            merged.aggregates, seeds_per_cell=merged.seeds_per_cell
        )
        assert table.format() == campaign.summarize(reference.results).format()

    def test_results_in_canonical_grid_order(self, sharded):
        results_dir, _, reference, _ = sharded
        merged = merge_shards([results_dir])
        assert [r.fingerprint() for r in merged.results] == [
            r.fingerprint() for r in reference.results
        ]

    def test_metrics_fold_matches_single_run(self, sharded):
        results_dir, _, reference, _ = sharded

        def deterministic(registry):
            return {
                name: series
                for name, series in registry.snapshot().items()
                if not name.endswith(".seconds")
                and name != "campaign.queue.depth"  # per-invocation shape
            }

        merged = merge_shards([results_dir])
        assert deterministic(merged.registry) == deterministic(
            reference.registry
        )

    def test_explicit_manifest_paths_work(self, sharded):
        results_dir, _, _, _ = sharded
        manifests = find_manifests([results_dir])
        assert [p.name for p in manifests] == [
            "manifest-1-of-2.json",
            "manifest-2-of-2.json",
        ]
        merged = merge_shards(manifests)
        assert merged.report.complete

    def test_report_lines_and_json(self, sharded):
        results_dir, _, _, _ = sharded
        report = merge_shards([results_dir]).report
        assert "merged 8 cells from 2 shard(s)" in report.lines()[0]
        assert report.lines()[-1].startswith("merge complete")
        payload = report.to_json()
        assert payload["type"] == "campaign.merge.report"
        assert payload["complete"] is True


class TestGapDetection:
    def test_deleted_cell_reports_gap(self, sharded, tmp_path):
        results_dir, _, _, _ = sharded
        work = tmp_path / "gap"
        work.mkdir()
        for source in results_dir.iterdir():
            (work / source.name).write_bytes(source.read_bytes())

        path, lines = stream_lines(work, 1)
        dropped = cell_key_of(lines[0])
        path.write_bytes(b"\n".join(lines[1:]) + b"\n")

        merged = merge_shards([work])
        assert merged.report.gaps == [dropped]
        assert not merged.report.complete
        assert merged.report.cells == 7
        assert any("gap: " in l for l in merged.report.lines())

    def test_strict_merge_raises_on_gap(self, sharded, tmp_path):
        results_dir, _, _, _ = sharded
        work = tmp_path / "gap-strict"
        work.mkdir()
        for source in results_dir.iterdir():
            (work / source.name).write_bytes(source.read_bytes())
        path, lines = stream_lines(work, 2)
        path.write_bytes(b"\n".join(lines[:-1]) + b"\n")
        with pytest.raises(MergeError, match="1 gap"):
            merge_shards([work], strict=True)


class TestOverlapAndConflictDetection:
    def copy_dir(self, results_dir, destination):
        destination.mkdir()
        for source in results_dir.iterdir():
            (destination / source.name).write_bytes(source.read_bytes())

    def test_duplicated_cell_reports_benign_overlap(self, sharded, tmp_path):
        results_dir, _, _, _ = sharded
        work = tmp_path / "overlap"
        self.copy_dir(results_dir, work)

        # shard 2 re-publishes (identically) a cell shard 1 owns
        path1, lines1 = stream_lines(work, 1)
        path2, _ = stream_lines(work, 2)
        with open(path2, "ab") as handle:
            handle.write(lines1[0] + b"\n")

        merged = merge_shards([work])
        assert merged.report.overlaps == [cell_key_of(lines1[0])]
        assert not merged.report.conflicts
        assert merged.report.complete  # agreeing duplicates are benign
        assert merged.report.cells == 8

    def test_disagreeing_duplicate_reports_conflict(self, sharded, tmp_path):
        results_dir, _, _, _ = sharded
        work = tmp_path / "conflict"
        self.copy_dir(results_dir, work)

        path1, lines1 = stream_lines(work, 1)
        record = json.loads(lines1[0])
        record["precision"] = record["precision"] + 1.0  # a different run
        path2, _ = stream_lines(work, 2)
        with open(path2, "ab") as handle:
            handle.write(json.dumps(record, sort_keys=True).encode() + b"\n")

        merged = merge_shards([work])
        conflicted = cell_key_of(lines1[0])
        assert merged.report.conflicts == [conflicted]
        assert conflicted not in merged.report.overlaps
        assert not merged.report.complete
        # first-seen record wins: the fused table is still the reference's
        kept = {
            (r.scenario, r.topology, r.seed): r.precision
            for r in merged.results
        }
        assert kept[conflicted] == json.loads(lines1[0])["precision"]


class TestGridMismatch:
    def test_shards_of_different_grids_refuse_to_merge(self, tmp_path):
        for name, seeds in (("a", range(2)), ("b", range(3))):
            campaign = Campaign(seeds=seeds)
            campaign.add("bounded", bounded_builder)
            campaign.run_results(
                [ring(4)], workers=1, results_dir=tmp_path / name
            )
        with pytest.raises(MergeError, match="different campaign grid"):
            merge_shards([tmp_path / "a", tmp_path / "b"])

    def test_missing_sources_rejected(self, tmp_path):
        with pytest.raises(MergeError, match="no such shard source"):
            merge_shards([tmp_path / "nowhere"])
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(MergeError, match="no shard manifests"):
            merge_shards([empty])
        with pytest.raises(MergeError, match="no shard manifests given"):
            merge_shards([])

    def test_non_manifest_file_rejected(self, tmp_path):
        bogus = tmp_path / "manifest-1-of-1.json"
        bogus.write_text('{"type": "something.else"}')
        with pytest.raises(MergeError, match="not a shard manifest"):
            merge_shards([bogus])


class TestQuarantineVsGap:
    def test_failure_records_are_not_gaps(self, tmp_path):
        grid = [("bounded", "ring-4", seed) for seed in range(2)]
        from repro.runner import CellResult

        with ResultSink(tmp_path) as sink:
            sink.begin(grid, range(2))
            sink.append_result(
                0,
                CellResult(
                    scenario="bounded", topology="ring-4", seed=0,
                    precision=2.0, rho_bar=2.0, realized=1.0, sound=True,
                    backend="python", seconds=0.01,
                ),
            )
            sink.append_failure(
                1,
                CellFailure(
                    scenario="bounded", topology="ring-4", seed=1,
                    kind="timeout", message="cell exceeded 1s", attempts=3,
                ),
            )
        merged = merge_shards([tmp_path])
        assert merged.report.quarantined == 1
        assert not merged.report.gaps  # a known failure is not missing data
        assert merged.report.complete
        (failure,) = merged.failures
        assert failure.key == ("bounded", "ring-4", 1)
        counters = merged.registry.snapshot()
        assert counters["campaign.cells.quarantined"]["value"] == 1.0
        assert any("quarantined: 1" in l for l in merged.report.lines())


class TestMergeCli:
    def test_cli_merge_table_matches_api(self, sharded, tmp_path, capsys):
        results_dir, _, reference, campaign = sharded
        out = tmp_path / "merged-table.txt"
        code = cli_main(
            ["campaign", "merge", str(results_dir), "--table-out", str(out)]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "merge complete" in stdout
        expected = campaign.summarize(reference.results).format() + "\n"
        assert out.read_text() == expected

    def test_cli_merge_exit_code_flags_gaps(self, sharded, tmp_path, capsys):
        results_dir, _, _, _ = sharded
        work = tmp_path / "cli-gap"
        work.mkdir()
        for source in results_dir.iterdir():
            (work / source.name).write_bytes(source.read_bytes())
        path, lines = stream_lines(work, 1)
        path.write_bytes(b"\n".join(lines[1:]) + b"\n")
        code = cli_main(["campaign", "merge", str(work)])
        assert code == 1
        assert "gap: " in capsys.readouterr().out

    def test_cli_merge_rejects_mixed_grids(self, tmp_path, capsys):
        for name, seeds in (("a", range(2)), ("b", range(3))):
            campaign = Campaign(seeds=seeds)
            campaign.add("bounded", bounded_builder)
            campaign.run_results(
                [ring(4)], workers=1, results_dir=tmp_path / name
            )
        code = cli_main(
            ["campaign", "merge", str(tmp_path / "a"), str(tmp_path / "b")]
        )
        assert code == 2
