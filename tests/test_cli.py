"""Tests for the command-line interface (repro.cli)."""

import json

import pytest

from repro.cli import build_parser, main
from repro.live.cluster import smoke
from repro.live.trace import validate_probe_log_file
from repro.obs import NOOP, get_recorder, validate_metrics_file, validate_trace_file


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_subcommands(self):
        parser = build_parser()
        for argv in (
            ["list"],
            ["demo"],
            ["experiment", "E1"],
            ["experiment", "E1", "--quick"],
            ["all", "--quick"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func)


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "E10" in out

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "optimal precision" in out
        assert "critical cycle" in out

    def test_experiment_quick(self, capsys):
        assert main(["experiment", "E2", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "E2" in out
        assert "yes" in out

    def test_experiment_lowercase_id(self, capsys):
        assert main(["experiment", "e2", "--quick"]) == 0

    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "E42"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err

    def test_demo_prints_run_summary(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "events processed" in out
        assert "messages delivered" in out
        assert "peak queue depth" in out


class TestObservability:
    def test_demo_writes_parseable_trace_and_metrics(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.jsonl"
        assert main([
            "demo",
            "--trace-out", str(trace),
            "--metrics-out", str(metrics),
        ]) == 0
        out = capsys.readouterr().out
        assert "trace written" in out and "metrics written" in out
        assert validate_trace_file(trace) > 0
        assert validate_metrics_file(metrics) > 0
        names = {
            json.loads(line)["name"]
            for line in metrics.read_text().splitlines()
        }
        assert any(n.startswith("sim.") for n in names)
        assert any(n.startswith("pipeline.") for n in names)
        assert any(n.startswith("engine.") for n in names)
        # the global recorder is restored to the no-op default
        assert get_recorder() is NOOP

    def test_experiment_timings_flag(self, capsys):
        assert main(["experiment", "E1", "--quick", "--timings"]) == 0
        out = capsys.readouterr().out
        assert "engine stage timings" in out
        assert "global_estimates:" in out

    def test_profile_produces_report_and_files(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.jsonl"
        assert main([
            "profile", "E1", "--quick",
            "--trace-out", str(trace),
            "--metrics-out", str(metrics),
        ]) == 0
        out = capsys.readouterr().out
        assert "span tree" in out
        assert "top stages by self time" in out
        assert "sim.run" in out
        assert validate_trace_file(trace) > 0
        assert validate_metrics_file(metrics) > 0
        assert get_recorder() is NOOP

    def test_profile_prints_engine_shifts_counters(self, monkeypatch, capsys):
        """Warm-start counters reach the key-metrics table."""
        from repro.experiments import REGISTRY
        from repro.graphs.topology import random_connected
        from repro.obs.timeline import replay_online
        from repro.workloads.scenarios import heterogeneous

        def online_stream(quick=False):
            scenario = heterogeneous(random_connected(16, 0.05, 1), seed=1)
            replay_online(scenario.system, scenario.run())
            return []

        monkeypatch.setitem(REGISTRY, "E99", online_stream)
        assert main(["profile", "E99", "--quick"]) == 0
        rows = {
            line.split()[0]: line.split()[-1]
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("engine.shifts.")
        }
        assert float(rows["engine.shifts.warm_hits"]) > 0
        assert "engine.shifts.warm_fallbacks" in rows
        assert "engine.shifts.calls" in rows

    def test_profile_unknown_experiment(self, capsys):
        assert main(["profile", "E42", "--quick"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_demo_timings(self, capsys):
        assert main(["demo", "--timings"]) == 0
        out = capsys.readouterr().out
        assert "engine: " in out
        assert "shifts:" in out

    def test_record_accepts_obs_flags(self, tmp_path, capsys):
        metrics = tmp_path / "m.jsonl"
        assert main([
            "record", str(tmp_path / "out"),
            "--size", "4",
            "--metrics-out", str(metrics),
        ]) == 0
        out = capsys.readouterr().out
        assert "events processed" in out
        assert validate_metrics_file(metrics) > 0


class TestMonitorCommand:
    def test_parser_accepts_monitor_variants(self):
        parser = build_parser()
        for argv in (
            ["monitor", "bounded"],
            ["monitor", "hetero", "--size", "4", "--seed", "3"],
            ["monitor", "E8", "--quick", "--show-tables"],
            ["monitor", "bounded", "--corrupt"],
            ["monitor", "bounded", "--corrupt", "-2.5", "--strict"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_honest_workload_reports_zero_violations(self, capsys):
        assert main(["monitor", "bounded", "--size", "4"]) == 0
        out = capsys.readouterr().out
        assert "online convergence over simulated time" in out
        assert "per-link delay-estimate error" in out
        assert "0 violations" in out
        assert "all invariants held" in out
        assert get_recorder() is NOOP

    def test_corruption_is_reported_but_exit_zero_by_default(self, capsys):
        assert main(["monitor", "bounded", "--corrupt"]) == 0
        out = capsys.readouterr().out
        assert "injecting corrupted delay estimate" in out
        assert "violation(s):" in out

    def test_corruption_with_strict_exits_nonzero(self, capsys):
        assert main(["monitor", "bounded", "--corrupt", "--strict"]) == 1

    def test_artifacts_written_and_valid(self, tmp_path, capsys):
        from repro.obs import validate_flow_trace_file
        from repro.obs.timeline import validate_timeline_file

        flow = tmp_path / "flow.json"
        timeline = tmp_path / "timeline.jsonl"
        assert main([
            "monitor", "bounded", "--size", "4",
            "--flow-out", str(flow),
            "--timeline-out", str(timeline),
        ]) == 0
        out = capsys.readouterr().out
        assert "flows written" in out and "timeline written" in out
        assert validate_flow_trace_file(flow) > 0
        assert validate_timeline_file(timeline) > 0

    def test_experiment_mode_checks_pipeline_results(self, capsys):
        assert main(["monitor", "E2", "--quick"]) == 0
        out = capsys.readouterr().out
        # E2 never runs the synchronization pipeline: the suite must say
        # so instead of vacuously claiming the invariants held.
        assert "nothing" in out and "all invariants held" not in out

    def test_unknown_workload(self, capsys):
        assert main(["monitor", "nonsense"]) == 2
        assert "unknown workload" in capsys.readouterr().err


class TestCampaignCommand:
    def test_parser_accepts_campaign_variants(self):
        parser = build_parser()
        for argv in (
            ["campaign"],
            ["campaign", "--preset", "e9c", "--quick"],
            ["campaign", "--workers", "4", "--shard", "2/4"],
            ["campaign", "--resume", "--cells"],
            ["campaign", "--cache-dir", "x", "--results-out", "y.jsonl"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_workers_flag_on_other_subcommands(self):
        parser = build_parser()
        for argv in (
            ["experiment", "E1", "--workers", "2"],
            ["all", "--quick", "--workers", "2"],
            ["monitor", "bounded", "--workers", "2"],
        ):
            assert parser.parse_args(argv).workers == 2

    def test_demo_preset_runs_and_summarises(self, capsys):
        assert main(["campaign", "--quick", "--cells"]) == 0
        out = capsys.readouterr().out
        assert "Campaign (2 seeds per cell)" in out
        assert "campaign cells (grid order)" in out
        assert "bounded[1,3]" in out
        assert "cache:    0 hit(s)" in out

    def test_shard_runs_subset(self, capsys):
        assert main([
            "campaign", "--preset", "e9c", "--quick", "--shard", "1/2",
        ]) == 0
        out = capsys.readouterr().out
        assert "(shard 1/2)" in out

    def test_cache_resume_hits_on_second_run(self, tmp_path, capsys):
        argv = [
            "campaign", "--preset", "e9c", "--quick",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "0 hit(s), 4 miss(es)" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "4 hit(s), 0 miss(es)" in second

    def test_results_out_writes_valid_jsonl(self, tmp_path, capsys):
        from repro.runner import validate_cell_results_file

        path = tmp_path / "cells.jsonl"
        assert main([
            "campaign", "--quick", "--results-out", str(path),
        ]) == 0
        assert "results written" in capsys.readouterr().out
        assert validate_cell_results_file(path) == 12

    def test_campaign_obs_flags(self, tmp_path, capsys):
        metrics = tmp_path / "m.jsonl"
        assert main([
            "campaign", "--quick", "--metrics-out", str(metrics),
            "--timings",
        ]) == 0
        out = capsys.readouterr().out
        assert "engine stage timings" in out
        assert validate_metrics_file(metrics) > 0
        names = {
            json.loads(line)["name"]
            for line in metrics.read_text().splitlines()
        }
        assert "campaign.cells.total" in names
        assert "campaign.cell.seconds" in names
        assert get_recorder() is NOOP


class TestRecordTelemetry:
    def test_record_with_telemetry_writes_v2_trace(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main([
            "record", str(out_dir), "--size", "4", "--with-telemetry",
        ]) == 0
        out = capsys.readouterr().out
        assert "(+telemetry)" in out
        data = json.loads((out_dir / "trace.json").read_text())
        assert data["version"] == 2
        assert data["telemetry"]["messages"]
        assert data["telemetry"]["timeseries"]

    def test_record_without_telemetry_stays_v1(self, tmp_path):
        out_dir = tmp_path / "out"
        assert main(["record", str(out_dir), "--size", "4"]) == 0
        data = json.loads((out_dir / "trace.json").read_text())
        assert data["version"] == 1
        assert "telemetry" not in data


class TestSyncTraceCommand:
    def test_malformed_system_is_exit_2(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(["record", str(out_dir), "--size", "4"]) == 0
        (out_dir / "system.json").write_text("{oops")
        capsys.readouterr()
        assert main([
            "sync-trace", str(out_dir / "system.json"),
            str(out_dir / "trace.json"),
        ]) == 2
        err = capsys.readouterr().err
        assert "cannot load" in err and "system.json" in err

    def test_missing_trace_is_exit_2(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(["record", str(out_dir), "--size", "4"]) == 0
        capsys.readouterr()
        assert main([
            "sync-trace", str(out_dir / "system.json"),
            str(tmp_path / "missing.json"),
        ]) == 2
        assert "cannot load" in capsys.readouterr().err


class TestBenchCommand:
    def _run_smoke(self, tmp_path, name="engine.karp[backend=numpy,n=32]"):
        out = tmp_path / "bench.json"
        history = tmp_path / "history.jsonl"
        code = main([
            "bench", "run", "--suite", "smoke", "--name", name,
            "--repeats", "2", "--warmup", "0",
            "--out", str(out), "--history", str(history),
        ])
        return code, out, history

    def test_parser_knows_bench_actions(self):
        parser = build_parser()
        for argv in (
            ["bench", "run", "--suite", "full"],
            ["bench", "compare", "cur.json", "--tolerance", "ci"],
            ["bench", "report", "--from", "r.json"],
        ):
            assert callable(parser.parse_args(argv).func)

    def test_bench_run_writes_valid_report_and_history(
        self, tmp_path, capsys
    ):
        from repro.bench import read_bench_report, validate_bench_file

        code, out, history = self._run_smoke(tmp_path)
        assert code == 0
        printed = capsys.readouterr().out
        assert "bench timings" in printed
        assert "bench memory" in printed
        assert validate_bench_file(out) == 1
        assert validate_bench_file(history) == 1
        report = read_bench_report(out)
        assert report.env.fingerprint
        (result,) = report.results
        assert result.wall.min > 0
        assert result.peak_tracemalloc_bytes > 0

    def test_bench_run_no_history(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main([
            "bench", "run", "--name", "engine.karp[backend=numpy,n=32]",
            "--repeats", "1", "--warmup", "0",
            "--out", str(out), "--no-history",
            "--history", str(tmp_path / "history.jsonl"),
        ]) == 0
        assert not (tmp_path / "history.jsonl").exists()

    def test_bench_run_unknown_selection_fails(self, tmp_path, capsys):
        assert main([
            "bench", "run", "--name", "no.such.bench", "--no-history",
            "--history", str(tmp_path / "h.jsonl"),
        ]) == 2
        assert "no benchmarks selected" in capsys.readouterr().err

    def test_bench_compare_identical_passes(self, tmp_path, capsys):
        code, out, _ = self._run_smoke(tmp_path)
        assert code == 0
        assert main([
            "bench", "compare", str(out), "--baseline", str(out),
        ]) == 0
        printed = capsys.readouterr().out
        assert "bench compare" in printed

    def test_bench_compare_detects_injected_2x_slowdown(
        self, tmp_path, capsys
    ):
        code, out, _ = self._run_smoke(tmp_path)
        assert code == 0
        slowed = tmp_path / "slowed.json"
        data = json.loads(out.read_text())
        for result in data["results"]:
            for series in ("wall", "cpu"):
                stats = result[series]
                stats["samples"] = [s * 2 for s in stats["samples"]]
                for key in ("min", "median", "mean", "trimmed_mean", "max"):
                    stats[key] *= 2
        slowed.write_text(json.dumps(data))
        capsys.readouterr()
        assert main([
            "bench", "compare", str(slowed), "--baseline", str(out),
        ]) == 1
        printed = capsys.readouterr().out
        assert "REGRESSION" in printed

    def test_bench_compare_unreadable_is_exit_2(self, tmp_path, capsys):
        assert main([
            "bench", "compare", str(tmp_path / "missing.json"),
            "--baseline", str(tmp_path / "missing.json"),
        ]) == 2
        assert "cannot load" in capsys.readouterr().err

    def test_bench_report_from_archived_file(self, tmp_path, capsys):
        code, out, _ = self._run_smoke(tmp_path)
        assert code == 0
        capsys.readouterr()
        assert main(["bench", "report", "--from", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "bench timings" in printed
        assert "engine.karp" in printed

    def test_profile_prints_peak_memory(self, capsys):
        assert main(["profile", "E1", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "peak memory:" in out
        assert "process.tracemalloc_peak_bytes" in out
        assert "process.peak_rss_bytes" in out


class TestLiveCommand:
    def test_parser_accepts_live_variants(self):
        parser = build_parser()
        for argv in (
            ["live", "smoke"],
            ["live", "smoke", "--peers", "3", "--queries", "100",
             "--min-qps", "50", "--json"],
            ["live", "replay", "probes.jsonl"],
            ["serve", "--peers", "4", "--duration", "1",
             "--serve-metrics", "0"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_live_requires_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["live"])

    def test_live_smoke_has_no_raw_datagram_mode(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["live", "smoke", "--no-reliable"])
        assert exc.value.code == 2
        assert "--no-reliable" in capsys.readouterr().err

    def test_live_smoke_audits_and_reports(self, tmp_path, capsys):
        log_out = tmp_path / "probes.jsonl"
        assert main([
            "live", "smoke", "--peers", "3", "--queries", "120",
            "--warmup", "12", "--interval", "0.005",
            "--probe-log-out", str(log_out), "--json",
        ]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["ok_answers"] == 120
        assert summary["replay_ok"] is True
        assert summary["request_p99_seconds"] > 0
        assert validate_probe_log_file(log_out) == summary["admitted"]
        # The CLI prints run_smoke's own summary, key for key.
        direct = smoke(
            peers=2, queries=10, warmup_observations=4, interval=0.005
        )
        assert set(summary) == set(direct)

    def test_live_smoke_min_qps_gate(self, capsys):
        # An impossible threshold must turn into exit code 1.
        assert main([
            "live", "smoke", "--peers", "2", "--queries", "50",
            "--warmup", "6", "--interval", "0.005",
            "--min-qps", "1e12",
        ]) == 1
        assert "below the --min-qps" in capsys.readouterr().err

    def test_live_replay_round_trip(self, tmp_path, capsys):
        log_out = tmp_path / "probes.jsonl"
        assert main([
            "live", "smoke", "--peers", "2", "--queries", "40",
            "--warmup", "6", "--interval", "0.005",
            "--probe-log-out", str(log_out), "--json",
        ]) == 0
        capsys.readouterr()
        assert main(["live", "replay", str(log_out)]) == 0
        out = capsys.readouterr().out
        assert "precision:" in out and "corrections:" in out

    def test_live_replay_missing_file_is_exit_2(self, capsys):
        assert main(["live", "replay", "/nonexistent/probes.jsonl"]) == 2
        assert "cannot load" in capsys.readouterr().err

    def test_serve_runs_for_duration_and_serves_metrics(self, capsys):
        """The foreground server scrapes clean while it is alive."""
        import socket
        import threading
        import time
        import urllib.request

        # Reserve an ephemeral port for the sidecar; the tiny window
        # between closing and serve reusing it is fine for a test.
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]

        exit_code = {}

        def run_serve():
            exit_code["value"] = main([
                "serve", "--peers", "2", "--duration", "3.0",
                "--serve-metrics", str(port),
            ])

        thread = threading.Thread(target=run_serve)
        thread.start()
        url = f"http://127.0.0.1:{port}"
        health = metrics = None
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            try:
                with urllib.request.urlopen(
                    url + "/healthz", timeout=2
                ) as response:
                    health = json.loads(response.read())
                with urllib.request.urlopen(
                    url + "/metrics", timeout=2
                ) as response:
                    metrics = response.read().decode()
                break
            except OSError:
                time.sleep(0.1)
        thread.join(timeout=15)
        assert exit_code["value"] == 0
        assert health is not None and health["status"] == "pending"
        assert health["healthy"] is True
        assert metrics is not None  # the Prometheus surface answered
        out = capsys.readouterr().out
        assert "correction server on" in out
