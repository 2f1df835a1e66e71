"""Streaming result sink: durable JSONL shards, torn tails, resume.

ISSUE requirements covered here:

* round-trip fuzz of ``CellResult.to_json/from_json`` (inf/NaN
  sentinels, degraded results) and ``CellFailure`` quarantine records;
* crash-recovery: truncate a shard stream mid-line and assert a resumed
  run re-executes *only* the torn cell;
* a 10^4-cell synthetic grid streams through ``run_campaign`` in
  bounded-memory mode with the peak resident ``CellResult`` count
  bounded by a constant (the sink's high-water counter).
"""

import json
import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import line, ring
from repro.runner import (
    CellFailure,
    CellOutcome,
    CellResult,
    CellSpec,
    CellTask,
    ResultSink,
    grid_fingerprint,
    read_stream_records,
)
from repro.workloads import Campaign, bounded_uniform, run_campaign


def bounded_builder(topology, seed):
    return bounded_uniform(topology, lb=1.0, ub=3.0, seed=seed)


def make_campaign(seeds=range(4)):
    campaign = Campaign(seeds=seeds)
    campaign.add("bounded", bounded_builder)
    return campaign


TOPOLOGIES = [ring(4), line(4)]

GRID = [("bounded", "ring-4", seed) for seed in range(4)]


def make_result(seed, precision=2.0, **kwargs):
    return CellResult(
        scenario="bounded", topology="ring-4", seed=seed,
        precision=precision, rho_bar=precision, realized=1.0, sound=True,
        backend="python", seconds=0.01, **kwargs,
    )


def make_failure(seed, kind="crash"):
    return CellFailure(
        scenario="bounded", topology="ring-4", seed=seed,
        kind=kind, message="worker died", attempts=2,
    )


class TestGridFingerprint:
    def test_deterministic(self):
        assert grid_fingerprint(GRID) == grid_fingerprint(list(GRID))

    def test_order_sensitive(self):
        assert grid_fingerprint(GRID) != grid_fingerprint(GRID[::-1])

    def test_cell_sensitive(self):
        other = GRID[:-1] + [("bounded", "ring-4", 99)]
        assert grid_fingerprint(GRID) != grid_fingerprint(other)


class TestReadStreamRecords:
    def test_missing_file(self, tmp_path):
        assert read_stream_records(tmp_path / "none.jsonl") == ([], 0)

    def test_clean_stream(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_bytes(b'{"a": 1}\n{"b": 2}\n')
        records, valid = read_stream_records(path)
        assert records == [{"a": 1}, {"b": 2}]
        assert valid == path.stat().st_size

    def test_torn_tail_dropped(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_bytes(b'{"a": 1}\n{"b": ')  # crash mid-append
        records, valid = read_stream_records(path)
        assert records == [{"a": 1}]
        assert valid == len(b'{"a": 1}\n')

    def test_corrupt_middle_stops_scan(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_bytes(b'{"a": 1}\n{garbage}\n{"c": 3}\n')
        records, valid = read_stream_records(path)
        assert records == [{"a": 1}]
        assert valid == len(b'{"a": 1}\n')

    def test_non_object_lines_stop_scan(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_bytes(b'[1, 2]\n{"a": 1}\n')
        assert read_stream_records(path) == ([], 0)


class TestResultSinkLifecycle:
    def test_round_trip_recovery(self, tmp_path):
        with ResultSink(tmp_path) as sink:
            assert sink.begin(GRID, range(4)).cells == 0
            sink.append_result(0, make_result(0), metrics={"m": {}})
            sink.append_result(2, make_result(2, precision=math.inf))
        manifest = json.loads(sink.manifest_path.read_text())
        assert manifest["complete"] is True
        assert set(manifest["completed"]) == {"0", "2"}

        fresh = ResultSink(tmp_path)
        recovery = fresh.begin(GRID, range(4))
        assert sorted(recovery.results) == [0, 2]
        assert recovery.metrics[0] == {"m": {}}
        assert recovery.metrics[2] is None
        assert math.isinf(recovery.results[2].precision)
        assert recovery.results[0].fingerprint() == make_result(0).fingerprint()
        assert fresh.recovered == 2
        fresh.close()

    def test_failure_records_recover_as_quarantined(self, tmp_path):
        with ResultSink(tmp_path) as sink:
            sink.begin(GRID, range(4))
            sink.append_failure(1, make_failure(1))
        recovery = ResultSink(tmp_path).begin(GRID, range(4))
        assert list(recovery.failures) == [1]
        assert recovery.failures[1].kind == "crash"
        manifest = json.loads((tmp_path / "manifest-1-of-1.json").read_text())
        assert manifest["completed"]["1"] == "quarantined"

    def test_later_result_supersedes_failure(self, tmp_path):
        with ResultSink(tmp_path) as sink:
            sink.begin(GRID, range(4))
            sink.append_failure(1, make_failure(1))
            sink.append_result(1, make_result(1))  # retry succeeded
        recovery = ResultSink(tmp_path).begin(GRID, range(4))
        assert not recovery.failures
        assert list(recovery.results) == [1]

    def test_torn_tail_truncated_on_resume(self, tmp_path):
        with ResultSink(tmp_path) as sink:
            sink.begin(GRID, range(4))
            sink.append_result(0, make_result(0))
            sink.append_result(1, make_result(1))
        data = sink.data_path.read_bytes()
        torn = data[: len(data) - len(data.split(b"\n")[-2]) // 2 - 1]
        sink.data_path.write_bytes(torn)

        fresh = ResultSink(tmp_path)
        recovery = fresh.begin(GRID, range(4))
        assert list(recovery.results) == [0]  # cell 1's line was torn
        assert recovery.truncated_bytes > 0
        # the stream is parseable again: appends continue cleanly
        fresh.append_result(1, make_result(1))
        fresh.close()
        records, valid = read_stream_records(fresh.data_path)
        assert [r["seed"] for r in records] == [0, 1]
        assert valid == fresh.data_path.stat().st_size

    def test_refuses_foreign_grid(self, tmp_path):
        with ResultSink(tmp_path) as sink:
            sink.begin(GRID, range(4))
        other = [("bounded", "ring-4", seed) for seed in range(5)]
        with pytest.raises(ValueError, match="different campaign grid"):
            ResultSink(tmp_path).begin(other, range(5))

    def test_stream_without_manifest_is_discarded(self, tmp_path):
        orphan = tmp_path / "shard-1-of-1.jsonl"
        record = make_result(0).to_json()
        record["index"] = 0
        orphan.write_text(json.dumps(record) + "\n")
        recovery = ResultSink(tmp_path).begin(GRID, range(4))
        assert recovery.cells == 0  # provenance unknown: not trusted

    def test_foreign_and_out_of_range_records_ignored(self, tmp_path):
        with ResultSink(tmp_path) as sink:
            sink.begin(GRID, range(4))
            sink.append_result(0, make_result(0))
        with open(tmp_path / "shard-1-of-1.jsonl", "a") as handle:
            bad = make_result(1).to_json()
            bad["index"] = 99  # stale index from some other grid
            handle.write(json.dumps(bad) + "\n")
            handle.write(json.dumps({"type": "metrics.counter"}) + "\n")
        recovery = ResultSink(tmp_path).begin(GRID, range(4))
        assert list(recovery.results) == [0]

    def test_lifecycle_errors(self, tmp_path):
        sink = ResultSink(tmp_path)
        with pytest.raises(RuntimeError, match="not begun"):
            sink.append_result(0, make_result(0))
        sink.begin(GRID, range(4))
        with pytest.raises(RuntimeError, match="already begun"):
            sink.begin(GRID, range(4))
        sink.close()

    def test_invalid_shard_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="invalid shard"):
            ResultSink(tmp_path, shard=(3, 2))

    def test_high_water_tracks_maximum(self, tmp_path):
        sink = ResultSink(tmp_path)
        for count in (1, 5, 3):
            sink.note_resident(count)
        assert sink.resident_high_water == 5


class TestRoundTripFuzz:
    """Serialization survives the full value space, non-finite included."""

    values = st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.just(math.inf),
        st.just(-math.inf),
        st.just(math.nan),
    )

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        precision=values,
        rho_bar=values,
        realized=values,
        sound=st.booleans(),
        cache_hit=st.booleans(),
        degraded=st.booleans(),
        timings=st.dictionaries(
            st.sampled_from(["graph", "solve", "verify"]),
            st.floats(min_value=0, max_value=1e6, allow_nan=False),
            max_size=3,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_cell_result_round_trips(
        self, seed, precision, rho_bar, realized, sound, cache_hit,
        degraded, timings,
    ):
        result = CellResult(
            scenario="bounded", topology="ring-4", seed=seed,
            precision=precision, rho_bar=rho_bar, realized=realized,
            sound=sound, backend="python", seconds=0.5, timings=timings,
            cache_hit=cache_hit, degraded=degraded,
        )
        # through an actual JSON text round trip, as the sink does
        wire = json.dumps(result.to_json(), sort_keys=True)
        clone = CellResult.from_json(json.loads(wire))
        assert clone.to_json() == result.to_json()
        assert clone.degraded == degraded
        if not any(map(math.isnan, (precision, rho_bar, realized))):
            assert clone.fingerprint() == result.fingerprint()

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        kind=st.sampled_from(["timeout", "crash", "error"]),
        message=st.text(max_size=80),
        attempts=st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=40, deadline=None)
    def test_cell_failure_round_trips(self, seed, kind, message, attempts):
        failure = CellFailure(
            scenario="bounded", topology="ring-4", seed=seed,
            kind=kind, message=message, attempts=attempts,
        )
        wire = json.dumps(failure.to_json(), sort_keys=True)
        clone = CellFailure.from_json(json.loads(wire))
        assert clone == failure
        assert clone.key == failure.key


class TestCrashRecoveryResume:
    """Kill a streaming run mid-append; the resume redoes only the loss."""

    def test_resume_reruns_only_the_torn_cell(self, tmp_path):
        campaign = make_campaign()
        first = campaign.run_results(
            TOPOLOGIES, workers=1, results_dir=tmp_path / "stream"
        )
        assert first.cells == 8 and first.resumed == 0

        # Simulate a crash mid-append: tear the final record in half.
        stream = tmp_path / "stream" / "shard-1-of-1.jsonl"
        lines = stream.read_bytes().split(b"\n")
        torn = b"\n".join(lines[:-2]) + b"\n" + lines[-2][: len(lines[-2]) // 2]
        stream.write_bytes(torn)

        second = campaign.run_results(
            TOPOLOGIES, workers=1, results_dir=tmp_path / "stream"
        )
        assert second.resumed == 7  # durable cells were not re-run
        assert second.cache_misses == 1  # exactly the torn cell
        assert second.cells == 8
        assert [r.fingerprint() for r in second.results] == [
            r.fingerprint() for r in first.results
        ]

    def test_resumed_table_and_metrics_match_single_run(self, tmp_path):
        campaign = make_campaign()
        reference = campaign.run_results(TOPOLOGIES, workers=1)
        streamed = campaign.run_results(
            TOPOLOGIES, workers=1, results_dir=tmp_path / "stream"
        )
        resumed = campaign.run_results(
            TOPOLOGIES, workers=1, results_dir=tmp_path / "stream"
        )
        assert resumed.resumed == 8 and resumed.cache_misses == 0

        def deterministic(outcome):
            return {
                name: series
                for name, series in outcome.registry.snapshot().items()
                if not name.endswith(".seconds")
            }

        for outcome in (streamed, resumed):
            assert [r.fingerprint() for r in outcome.results] == [
                r.fingerprint() for r in reference.results
            ]
        # A streaming first run is metrics-identical to a plain run; the
        # resumed run executed nothing, but the *recovered* per-cell
        # snapshots still fold to the same sim/pipeline series.
        assert deterministic(streamed) == deterministic(reference)
        folded = deterministic(resumed)
        for name, series in deterministic(reference).items():
            if name.startswith(("sim.", "pipeline.", "engine.")):
                assert folded[name] == series


def _stub_execute_cell(task):
    spec = task.spec
    return CellOutcome(
        result=CellResult(
            scenario=spec.builder, topology=spec.topology.name,
            seed=spec.seed, precision=float(spec.seed % 7),
            rho_bar=float(spec.seed % 7), realized=0.5, sound=True,
            backend="stub", seconds=0.0,
        ),
        metrics={},
    )


class TestBoundedMemoryAtScale:
    """Acceptance: 10^4 cells stream with O(1) resident results."""

    GRID_SIZE = 10_000

    def test_high_water_is_constant_in_grid_size(self, tmp_path, monkeypatch):
        import repro.runner.executor as executor_module

        monkeypatch.setattr(
            executor_module, "execute_cell", _stub_execute_cell
        )
        topology = ring(3)
        tasks = [
            CellTask(
                spec=CellSpec(builder="stub", topology=topology, seed=seed),
                build=bounded_builder,
            )
            for seed in range(self.GRID_SIZE)
        ]
        monkeypatch.setattr(os, "fsync", lambda fd: None)  # test speed
        outcome = run_campaign(
            tasks, workers=1, results_dir=tmp_path, bounded_memory=True
        )
        assert outcome.cells == self.GRID_SIZE
        assert outcome.results == ()  # nothing retained in memory
        assert outcome.resident_high_water is not None
        assert outcome.resident_high_water <= 2  # O(1), not O(grid)
        stream = tmp_path / "shard-1-of-1.jsonl"
        records, valid = read_stream_records(stream)
        assert len(records) == self.GRID_SIZE  # every cell is durable
        assert valid == stream.stat().st_size
        (aggregate,) = outcome.aggregates
        assert len(aggregate.precisions) == self.GRID_SIZE

    def test_unbounded_run_high_water_grows_with_grid(self, tmp_path):
        campaign = make_campaign()
        outcome = campaign.run_results(
            TOPOLOGIES, workers=1, results_dir=tmp_path / "stream"
        )
        # keeping all results: the high-water mark reaches the grid size
        assert outcome.resident_high_water == 8

    def test_bounded_memory_requires_sink(self):
        campaign = make_campaign(seeds=range(1))
        with pytest.raises(ValueError, match="requires a sink"):
            campaign.run_results(
                [ring(4)], workers=1, bounded_memory=True
            )
