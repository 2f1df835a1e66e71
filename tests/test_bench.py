"""Tests for the continuous-benchmarking harness (repro.bench)."""

import json

import pytest

from repro.bench import (
    BaselineMismatchError,
    BenchCase,
    BenchRegistry,
    BenchReport,
    BenchResult,
    BenchSchemaError,
    EnvFingerprint,
    SampleStats,
    append_history,
    compare_reports,
    compare_results,
    read_bench_report,
    read_history,
    render_report,
    resolve_tolerance,
    run_case,
    run_cases,
    run_suite,
    validate_bench_file,
    write_bench_report,
)

ENV = EnvFingerprint(
    python="3.11.7", numpy="2.0.0", platform="linux", machine="x86_64",
    hostname="benchhost", cpu_count=4, effective_cpus=4, git_sha="abc123",
)

OTHER_ENV = EnvFingerprint(
    python="3.12.1", numpy="2.0.0", platform="linux", machine="x86_64",
    hostname="otherhost", cpu_count=8, effective_cpus=8,
)


def _result(name="engine.toy", params=None, wall=(0.010, 0.011, 0.012),
            scale=1.0, **kwargs):
    samples = tuple(s * scale for s in wall)
    return BenchResult(
        name=name,
        params=dict(params or {}),
        wall=SampleStats(samples=samples),
        cpu=SampleStats(samples=samples),
        warmup=1,
        **kwargs,
    )


def _report(results, env=ENV, suite="smoke"):
    return BenchReport(env=env, suite=suite, results=list(results))


class TestSampleStats:
    def test_summaries(self):
        stats = SampleStats(samples=(3.0, 1.0, 2.0))
        assert stats.min == 1.0
        assert stats.max == 3.0
        assert stats.median == 2.0
        assert stats.mean == pytest.approx(2.0)

    def test_trimmed_mean_drops_slowest_fifth(self):
        stats = SampleStats(samples=(1.0, 1.0, 1.0, 1.0, 100.0))
        assert stats.trimmed_mean == pytest.approx(1.0)

    def test_trimmed_mean_is_plain_mean_below_five_samples(self):
        stats = SampleStats(samples=(1.0, 100.0))
        assert stats.trimmed_mean == pytest.approx(50.5)

    def test_json_round_trip_preserves_raw_samples(self):
        stats = SampleStats(samples=(0.25, 0.5))
        assert SampleStats.from_json(stats.to_json()) == stats


class TestEnvFingerprint:
    def test_capture_fills_every_field(self):
        env = EnvFingerprint.capture()
        assert env.python and env.numpy and env.hostname
        assert env.cpu_count >= 1 and env.effective_cpus >= 1
        assert len(env.fingerprint) == 16

    def test_git_sha_does_not_affect_fingerprint(self):
        a = EnvFingerprint.from_json({**ENV.to_json(), "git_sha": "one"})
        b = EnvFingerprint.from_json({**ENV.to_json(), "git_sha": "two"})
        assert a.comparable_with(b)

    def test_hostname_changes_fingerprint(self):
        assert not ENV.comparable_with(OTHER_ENV)

    def test_json_round_trip(self):
        assert EnvFingerprint.from_json(ENV.to_json()) == ENV


class TestSchemaRoundTrip:
    def test_result_key_is_name_plus_sorted_params(self):
        result = _result(params={"n": 32, "backend": "numpy"})
        assert result.key == "engine.toy[backend=numpy,n=32]"
        assert _result().key == "engine.toy"

    def test_result_round_trip(self):
        result = _result(
            params={"n": 8},
            peak_tracemalloc_bytes=1024,
            peak_rss_bytes=2048,
            percentiles={"h": {"count": 3.0, "p50": 0.5}},
            extra={"precision": 1.5},
        )
        assert BenchResult.from_json(result.to_json()) == result

    def test_report_document_round_trip(self, tmp_path):
        report = _report([_result(), _result(name="sim.toy")])
        path = write_bench_report(tmp_path / "r.json", report)
        loaded = read_bench_report(path)
        assert loaded.env == ENV
        assert loaded.by_key().keys() == report.by_key().keys()
        assert loaded.result("sim.toy").wall == report.results[1].wall

    def test_wrong_record_type_rejected(self):
        with pytest.raises(BenchSchemaError, match="bench_report"):
            BenchReport.from_json({"record": "something_else"})

    def test_future_schema_version_rejected(self):
        data = _report([_result()]).to_json()
        data["schema"] = 99
        with pytest.raises(BenchSchemaError, match="version"):
            BenchReport.from_json(data)

    def test_history_appends_and_reads_in_order(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        append_history(path, _report([_result()], suite="one"))
        append_history(path, _report([_result()], suite="two"))
        assert [r.suite for r in read_history(path)] == ["one", "two"]


class TestValidator:
    def test_valid_document_counts_results(self, tmp_path):
        path = write_bench_report(
            tmp_path / "r.json", _report([_result(), _result(name="b")])
        )
        assert validate_bench_file(path) == 2

    def test_valid_history_counts_all_runs(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        append_history(path, _report([_result()]))
        append_history(path, _report([_result(), _result(name="b")]))
        assert validate_bench_file(path) == 3

    def test_legacy_bare_list_rejected_with_pointer(self, tmp_path):
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps([{"n": 64, "numpy_seconds": 0.005}]))
        with pytest.raises(BenchSchemaError, match="bench harness"):
            validate_bench_file(path)

    def test_duplicate_result_keys_rejected(self, tmp_path):
        path = write_bench_report(
            tmp_path / "r.json", _report([_result(), _result()])
        )
        with pytest.raises(BenchSchemaError, match="duplicate"):
            validate_bench_file(path)

    def test_empty_samples_rejected(self, tmp_path):
        data = _report([_result()]).to_json()
        data["results"][0]["wall"]["samples"] = []
        path = tmp_path / "r.json"
        path.write_text(json.dumps(data))
        with pytest.raises(BenchSchemaError, match="no wall samples"):
            validate_bench_file(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        with pytest.raises(BenchSchemaError, match="empty"):
            validate_bench_file(path)


class TestRegistry:
    def test_grid_expands_to_one_case_per_combination(self):
        registry = BenchRegistry()

        @registry.benchmark(
            "toy", grid={"backend": ("a", "b"), "n": (1, 2)}
        )
        def toy(backend, n):
            return lambda: None

        keys = registry.keys()
        assert len(keys) == 4
        assert "toy[backend=a,n=1]" in keys
        assert "toy[backend=b,n=2]" in keys

    def test_suites_callable_assigns_tiers_per_params(self):
        registry = BenchRegistry()

        @registry.benchmark(
            "toy", grid={"n": (1, 100)},
            suites=lambda p: ("smoke", "full") if p["n"] == 1 else ("full",),
        )
        def toy(n):
            return lambda: None

        assert [c.key for c in registry.cases(suite="smoke")] == ["toy[n=1]"]
        assert len(registry.cases(suite="full")) == 2

    def test_duplicate_key_rejected(self):
        registry = BenchRegistry()
        registry.add(BenchCase(name="toy", setup=lambda: None))
        with pytest.raises(ValueError, match="already registered"):
            registry.add(BenchCase(name="toy", setup=lambda: None))

    def test_unknown_suite_rejected_at_registration(self):
        registry = BenchRegistry()
        with pytest.raises(ValueError, match="unknown suites"):
            registry.add(BenchCase(
                name="toy", setup=lambda: None, suites=("nightly",)
            ))

    def test_cases_filters_by_bare_name_and_full_key(self):
        registry = BenchRegistry()

        @registry.benchmark("toy", grid={"n": (1, 2)})
        def toy(n):
            return lambda: None

        @registry.benchmark("other")
        def other():
            return lambda: None

        assert len(registry.cases(names=["toy"])) == 2
        assert [c.key for c in registry.cases(names=["toy[n=2]"])] == [
            "toy[n=2]"
        ]
        with pytest.raises(ValueError, match="unknown suite"):
            registry.cases(suite="nightly")

    def test_default_workloads_cover_the_stack(self):
        from repro.bench import load_default_workloads

        registry = load_default_workloads()
        names = {case.name for case in registry.cases()}
        assert {
            "engine.pipeline", "engine.closure", "engine.karp",
            "engine.incremental", "sim.run", "online.replay",
            "campaign.throughput", "obs.recording", "monitor.suite",
            "core.estimates", "core.estimates.fresh",
        } <= names
        assert registry.cases(suite="smoke")


class TestRunner:
    def _counting_case(self, calls, **kwargs):
        def setup():
            return lambda: calls.append(1)

        return BenchCase(name="toy", setup=setup, **kwargs)

    def test_warmup_plus_repeats_plus_memory_pass(self):
        calls = []
        result, spans = run_case(
            self._counting_case(calls), repeats=3, warmup=2
        )
        # 2 warmup + 3 timed + 1 memory pass; no instrumented pass
        # (no histograms declared, spans not requested).
        assert len(calls) == 6
        assert result.repeats == 3
        assert result.warmup == 2
        assert result.peak_tracemalloc_bytes is not None
        assert spans == []

    def test_setup_tuple_attaches_extra(self):
        case = BenchCase(
            name="toy", setup=lambda: (lambda: None, {"precision": 2.5})
        )
        result, _ = run_case(case, repeats=1, warmup=0)
        assert result.extra == {"precision": 2.5}

    def test_instrumented_pass_harvests_histogram_percentiles(self):
        def setup():
            from repro.obs import get_recorder

            def thunk():
                hist = get_recorder().histogram(
                    "toy.latency", boundaries=(1.0, 2.0, 4.0)
                )
                for value in (0.5, 1.5, 3.0):
                    hist.observe(value)

            return thunk

        case = BenchCase(
            name="toy", setup=setup, histograms=("toy.latency", "absent")
        )
        result, _ = run_case(case, repeats=1, warmup=0)
        stats = result.percentiles["toy.latency"]
        assert stats["count"] == 3.0
        assert 0.0 < stats["p50"] <= 2.0 <= stats["p99"] <= 4.0
        assert "absent" not in result.percentiles

    def test_collect_spans_wraps_thunk_under_bench_root(self):
        calls = []
        result, spans = run_case(
            self._counting_case(calls), repeats=1, warmup=0,
            collect_spans=True,
        )
        assert [s.name for s in spans] == ["bench.toy"]
        assert len(calls) == 3  # 1 timed + 1 memory + 1 instrumented

    def test_repeats_below_one_rejected(self):
        with pytest.raises(ValueError, match="repeats"):
            run_case(self._counting_case([]), repeats=0)

    def test_run_cases_builds_fingerprinted_report(self):
        outcome = run_cases(
            [self._counting_case([])], suite="custom", repeats=2, warmup=0
        )
        report = outcome.report
        assert report.suite == "custom"
        assert report.options == {"repeats": 2, "warmup": 0}
        assert report.env.fingerprint == EnvFingerprint.capture().fingerprint
        assert report.results[0].repeats == 2

    def test_empty_selection_raises_instead_of_empty_report(self):
        registry = BenchRegistry()
        with pytest.raises(ValueError, match="no benchmarks selected"):
            run_suite(registry=registry, names=["nope"])


class TestCompare:
    def test_identical_runs_pass(self):
        baseline = _report([_result()])
        current = _report([_result()])
        comparison = compare_reports(baseline, current, tolerance=0.25)
        assert comparison.ok
        assert [d.verdict for d in comparison.deltas] == ["ok"]

    def test_injected_2x_slowdown_is_a_regression(self):
        baseline = _report([_result()])
        current = _report([_result(scale=2.0)])
        comparison = compare_reports(baseline, current, tolerance=0.25)
        assert not comparison.ok
        (delta,) = comparison.regressions
        assert delta.ratio == pytest.approx(2.0)
        assert any("REGRESSION" in line for line in comparison.lines())

    def test_single_slow_outlier_does_not_regress(self):
        # Median shifts past tolerance but the floor reproduces: noise,
        # not a regression.
        baseline = _result(wall=(0.010, 0.010, 0.010))
        current = _result(wall=(0.010, 0.020, 0.020))
        delta = compare_results(baseline, current, tolerance=0.25)
        assert delta.verdict == "ok"

    def test_few_repeats_doubles_the_tolerance(self):
        baseline = _result(wall=(0.010,))
        # 1.4x slower: beyond +25% but inside the doubled +50% band.
        delta = compare_results(
            baseline, _result(wall=(0.014,)), tolerance=0.25
        )
        assert delta.verdict == "ok"
        delta = compare_results(
            baseline, _result(wall=(0.016,)), tolerance=0.25
        )
        assert delta.verdict == "regression"

    def test_faster_and_new_and_missing_verdicts(self):
        baseline = _report([_result(), _result(name="gone")])
        current = _report([_result(scale=0.4), _result(name="added")])
        comparison = compare_reports(baseline, current, tolerance=0.25)
        verdicts = {d.key: d.verdict for d in comparison.deltas}
        assert verdicts["engine.toy"] == "faster"
        assert verdicts["added"] == "new"
        assert verdicts["gone"] == "missing"
        assert comparison.ok  # none of these fail the gate

    def test_cross_env_refused_by_default(self):
        baseline = _report([_result()])
        current = _report([_result()], env=OTHER_ENV)
        with pytest.raises(BaselineMismatchError, match="different env"):
            compare_reports(baseline, current)
        comparison = compare_reports(
            baseline, current, allow_cross_env=True
        )
        assert comparison.cross_env
        assert any("environments differ" in line
                   for line in comparison.lines())

    def test_resolve_tolerance_presets_and_floats(self):
        assert resolve_tolerance("local") == (0.25, False)
        assert resolve_tolerance("ci") == (1.5, True)
        assert resolve_tolerance("0.4") == (0.4, False)
        with pytest.raises(ValueError, match="unknown tolerance"):
            resolve_tolerance("nope")
        with pytest.raises(ValueError, match="positive"):
            resolve_tolerance("-1")


class TestRendering:
    def test_render_report_sections(self):
        report = _report([
            _result(
                peak_tracemalloc_bytes=2048,
                percentiles={"toy.latency": {
                    "count": 3.0, "p50": 1.0, "p95": 2.0, "p99": 2.0,
                }},
            ),
        ])
        text = render_report(report)
        assert "bench timings" in text
        assert "bench memory" in text
        assert "latency percentiles" in text
        assert ENV.fingerprint in text

    def test_comparison_table_ranks_regressions_first(self):
        from repro.bench import comparison_table

        baseline = _report([_result(), _result(name="zz.slow")])
        current = _report([_result(), _result(name="zz.slow", scale=3.0)])
        comparison = compare_reports(baseline, current, tolerance=0.25)
        rendered = comparison_table(comparison).format()
        assert rendered.index("zz.slow") < rendered.index("engine.toy")


class TestObsMemory:
    def test_tracemalloc_peak_scopes_to_block(self):
        from repro.obs import TracemallocPeak

        with TracemallocPeak() as traced:
            blob = bytearray(512 * 1024)
        assert traced.peak_bytes >= 512 * 1024
        del blob

    def test_tracemalloc_peak_nests(self):
        from repro.obs import TracemallocPeak

        with TracemallocPeak() as outer:
            with TracemallocPeak() as inner:
                blob = bytearray(256 * 1024)
            del blob
        assert inner.peak_bytes >= 256 * 1024
        assert outer.peak_bytes >= inner.peak_bytes
        import tracemalloc

        assert not tracemalloc.is_tracing()

    def test_process_peak_rss_is_positive(self):
        from repro.obs import process_peak_rss_bytes

        rss = process_peak_rss_bytes()
        assert rss is not None and rss > 1024 * 1024

    def test_record_memory_gauges_sets_process_gauges(self):
        from repro.obs import (
            PEAK_RSS_GAUGE,
            TRACEMALLOC_PEAK_GAUGE,
            record_memory_gauges,
            recording,
        )

        with recording() as recorder:
            readings = record_memory_gauges(
                recorder, tracemalloc_peak=4096
            )
            assert recorder.registry.get(PEAK_RSS_GAUGE).value > 0
            assert recorder.registry.get(
                TRACEMALLOC_PEAK_GAUGE
            ).value == 4096.0
        assert readings[TRACEMALLOC_PEAK_GAUGE] == 4096

    def test_format_bytes(self):
        from repro.obs import format_bytes

        assert format_bytes(None) == "-"
        assert format_bytes(512) == "512 B"
        assert format_bytes(2048) == "2.0 KiB"
        assert format_bytes(3 * 1024 ** 2) == "3.0 MiB"
        assert format_bytes(5 * 1024 ** 3) == "5.0 GiB"


class TestSmokeIntegration:
    def test_real_smoke_case_end_to_end(self, tmp_path):
        outcome = run_suite(
            suite="smoke", names=["engine.karp[backend=numpy,n=32]"],
            repeats=1, warmup=0, collect_spans=True,
        )
        (result,) = outcome.report.results
        assert result.wall.min > 0
        assert result.cpu.min >= 0
        assert result.peak_tracemalloc_bytes > 0
        assert outcome.spans
        path = write_bench_report(tmp_path / "smoke.json", outcome.report)
        assert validate_bench_file(path) == 1
