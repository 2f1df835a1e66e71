"""Record files: one error shape, one torn-tail rule, atomic documents.

Every JSONL reader goes through :mod:`repro.records`, so

* a line that does not parse or is not a JSON object raises the
  format's own error type naming ``path:line``;
* a final fragment without a newline that does not parse is a torn
  append and is dropped, while a newline-terminated bad line is
  corruption;
* a document write that fails leaves the previous file and no tmp file.
"""

import os
import re

import pytest

from repro.bench import (
    BenchReport,
    BenchResult,
    BenchSchemaError,
    EnvFingerprint,
    SampleStats,
    append_history,
    read_history,
    validate_bench_file,
)
from repro.live.trace import (
    ProbeLogError,
    load_probe_log,
    write_probe_log,
)
from repro.live.wire import Report
from repro.obs.export import validate_metrics_file
from repro.obs.log import validate_log_file
from repro.obs.timeline import validate_timeline_file
from repro.runner import CellResult, ResultCache, ResultSink
from repro.runner.cells import validate_cell_results_file
from repro.runner.sink import read_stream_records

REPORT = BenchReport(
    env=EnvFingerprint(
        python="3.11.7", numpy="2.0.0", platform="linux", machine="x86_64",
        hostname="benchhost", cpu_count=4, effective_cpus=4,
    ),
    suite="smoke",
    results=[
        BenchResult(
            name="engine.toy", params={},
            wall=SampleStats(samples=(0.01, 0.02)),
            cpu=SampleStats(samples=(0.01, 0.02)), warmup=1,
        )
    ],
)

PROBES = [
    Report(sender="p", receiver="q", seq=seq, send_clock=1.0 + seq,
           recv_clock=3.5 + seq)
    for seq in range(3)
]


def make_result(seed):
    return CellResult(
        scenario="bounded", topology="ring-4", seed=seed, precision=2.0,
        rho_bar=2.0, realized=1.0, sound=True, backend="python",
        seconds=0.01,
    )


READERS = [
    (validate_timeline_file, ValueError),
    (validate_metrics_file, ValueError),
    (validate_log_file, ValueError),
    (validate_cell_results_file, ValueError),
    (load_probe_log, ProbeLogError),
    (read_history, BenchSchemaError),
]


class TestOneErrorShape:
    @pytest.mark.parametrize("line", ["[1, 2]", "3", "{oops"])
    @pytest.mark.parametrize(
        "reader, error", READERS, ids=[r.__name__ for r, _ in READERS]
    )
    def test_bad_line_names_path_and_line(self, tmp_path, reader, error, line):
        path = tmp_path / "records.jsonl"
        path.write_text("\n" + line + "\n")
        with pytest.raises(error, match=re.escape(f"{path}:2:")):
            reader(path)

    def test_iter_records_yields_line_numbers(self, tmp_path):
        from repro.records import iter_records

        path = tmp_path / "r.jsonl"
        path.write_bytes(b'{"a": 1}\n\n{"b": 2}\n')
        assert list(iter_records(path)) == [(1, {"a": 1}), (3, {"b": 2})]


class TestTornTail:
    def test_bench_history_drops_torn_fragment(self, tmp_path):
        path = tmp_path / "BENCH_history.jsonl"
        append_history(path, REPORT)
        append_history(path, REPORT)
        line = path.read_bytes().splitlines()[0]
        with open(path, "ab") as handle:
            handle.write(line[:40])  # an append that never finished
        assert len(read_history(path)) == 2
        assert validate_bench_file(path) == 2
        append_history(path, REPORT)  # the next append seals the tail first
        assert len(read_history(path)) == 3
        assert path.read_bytes().count(b"\n") == 3

    def test_probe_log_corrupt_final_line_is_an_error(self, tmp_path):
        path = write_probe_log(tmp_path / "probes.jsonl", PROBES)
        with open(path, "a") as handle:
            handle.write('{"type": "live.probe", "sender": "p", "rec\n')
        with pytest.raises(ProbeLogError, match=re.escape(f"{path}:4:")):
            load_probe_log(path)

    def test_shard_stream_unterminated_final_record_resumes(self, tmp_path):
        grid = [("bounded", "ring-4", seed) for seed in range(3)]
        with ResultSink(tmp_path) as sink:
            sink.begin(grid, range(3))
            sink.append_result(0, make_result(0))
            sink.append_result(1, make_result(1))
        data = sink.data_path.read_bytes()
        sink.data_path.write_bytes(data[:-1])  # the final newline is lost

        fresh = ResultSink(tmp_path)
        recovery = fresh.begin(grid, range(3))
        assert sorted(recovery.results) == [0, 1]
        assert recovery.truncated_bytes == 0
        fresh.append_result(2, make_result(2))
        fresh.close()
        records, valid = read_stream_records(fresh.data_path)
        assert [r["seed"] for r in records] == [0, 1, 2]
        assert valid == fresh.data_path.stat().st_size

    @pytest.mark.parametrize(
        "content, kept",
        [
            (b'{"a": 1}\n{"b": ', b'{"a": 1}\n'),
            (b'{"a": 1}\n{"b": 2}', b'{"a": 1}\n{"b": 2}\n'),
            (b'{"a": 1}\n', b'{"a": 1}\n'),
            (b"", b""),
        ],
    )
    def test_seal(self, tmp_path, content, kept):
        from repro.records import seal

        path = tmp_path / "s.jsonl"
        path.write_bytes(content)
        assert seal(path) == max(0, len(content) - len(kept))
        assert path.read_bytes() == kept


class TestAtomicCacheEntries:
    def test_failed_put_leaves_a_clean_miss(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)

        def crash(*args, **kwargs):
            raise OSError("crash mid-put")

        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(OSError, match="crash mid-put"):
            cache.put("k" * 64, make_result(0))
        monkeypatch.undo()
        assert cache.get("k" * 64) is None
        assert cache.corrupt_entries == 0
        assert not list(tmp_path.glob("*.tmp"))
