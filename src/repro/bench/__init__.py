"""Continuous performance observability: the ``repro.bench`` harness.

Performance numbers in this repo are first-class, schema'd artifacts,
not printouts.  The pieces:

* :mod:`repro.bench.registry` -- the ``@benchmark`` decorator and the
  suite tiers (``smoke`` for CI gating, ``full`` for the record);
* :mod:`repro.bench.workloads` -- the standard cases covering every hot
  path (engine kernels per backend x size, incremental repair, the
  simulator, online replay, campaign throughput, obs/monitor overhead);
* :mod:`repro.bench.runner` -- warmup/repeat/trim measurement in three
  isolated passes (timing under the no-op recorder, memory under
  tracemalloc, an instrumented pass for histogram percentiles + spans);
* :mod:`repro.bench.schema` -- versioned ``BenchResult``/``BenchReport``
  records with an environment fingerprint, document + JSONL-history
  serialization, and a validator;
* :mod:`repro.bench.baseline` -- noise-aware regression comparison
  (median AND floor must both move beyond tolerance) with same-machine
  enforcement by default;
* :mod:`repro.bench.report` -- rendering: timing/memory/percentile
  tables plus the span-tree profiling view.

Quickstart::

    from repro.bench import run_suite, compare_reports, read_bench_report

    outcome = run_suite("smoke")
    diff = compare_reports(read_bench_report("benchmarks/BENCH_baseline.json"),
                           outcome.report)
    assert diff.ok, diff.lines()

CLI: ``repro-clocksync bench run|compare|report``.  See DESIGN.md
section 13.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "BENCH_SCHEMA_VERSION": "repro.bench.schema",
    "DEFAULT_REPEATS": "repro.bench.runner",
    "DEFAULT_WARMUP": "repro.bench.runner",
    "MIN_SIGNIFICANT_REPEATS": "repro.bench.baseline",
    "PERCENTILES": "repro.bench.runner",
    "REGISTRY": "repro.bench.registry",
    "SUITES": "repro.bench.registry",
    "TOLERANCE_PRESETS": "repro.bench.baseline",
    "BaselineMismatchError": "repro.bench.baseline",
    "BenchCase": "repro.bench.registry",
    "BenchRegistry": "repro.bench.registry",
    "BenchReport": "repro.bench.schema",
    "BenchResult": "repro.bench.schema",
    "BenchSchemaError": "repro.bench.schema",
    "CaseDelta": "repro.bench.baseline",
    "Comparison": "repro.bench.baseline",
    "EnvFingerprint": "repro.bench.schema",
    "RunOutcome": "repro.bench.runner",
    "SampleStats": "repro.bench.schema",
    "append_history": "repro.bench.schema",
    "benchmark": "repro.bench.registry",
    "compare_reports": "repro.bench.baseline",
    "compare_results": "repro.bench.baseline",
    "comparison_table": "repro.bench.report",
    "environment_lines": "repro.bench.report",
    "load_default_workloads": "repro.bench.registry",
    "memory_table": "repro.bench.report",
    "percentiles_table": "repro.bench.report",
    "read_bench_report": "repro.bench.schema",
    "read_history": "repro.bench.schema",
    "render_report": "repro.bench.report",
    "resolve_tolerance": "repro.bench.baseline",
    "result_line": "repro.bench.report",
    "run_case": "repro.bench.runner",
    "run_cases": "repro.bench.runner",
    "run_suite": "repro.bench.runner",
    "timings_table": "repro.bench.report",
    "validate_bench_file": "repro.bench.schema",
    "write_bench_report": "repro.bench.schema",
}

__all__ = [*_EXPORTS]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
