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

from repro.bench.baseline import (
    MIN_SIGNIFICANT_REPEATS,
    TOLERANCE_PRESETS,
    BaselineMismatchError,
    CaseDelta,
    Comparison,
    compare_reports,
    compare_results,
    resolve_tolerance,
)
from repro.bench.registry import (
    REGISTRY,
    SUITES,
    BenchCase,
    BenchRegistry,
    benchmark,
    load_default_workloads,
)
from repro.bench.report import (
    comparison_table,
    environment_lines,
    memory_table,
    percentiles_table,
    render_report,
    result_line,
    timings_table,
)
from repro.bench.runner import (
    DEFAULT_REPEATS,
    DEFAULT_WARMUP,
    PERCENTILES,
    RunOutcome,
    run_case,
    run_cases,
    run_suite,
)
from repro.bench.schema import (
    BENCH_SCHEMA_VERSION,
    BenchReport,
    BenchResult,
    BenchSchemaError,
    EnvFingerprint,
    SampleStats,
    append_history,
    read_bench_report,
    read_history,
    validate_bench_file,
    write_bench_report,
)

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "DEFAULT_REPEATS",
    "DEFAULT_WARMUP",
    "MIN_SIGNIFICANT_REPEATS",
    "PERCENTILES",
    "REGISTRY",
    "SUITES",
    "TOLERANCE_PRESETS",
    "BaselineMismatchError",
    "BenchCase",
    "BenchRegistry",
    "BenchReport",
    "BenchResult",
    "BenchSchemaError",
    "CaseDelta",
    "Comparison",
    "EnvFingerprint",
    "RunOutcome",
    "SampleStats",
    "append_history",
    "benchmark",
    "compare_reports",
    "compare_results",
    "comparison_table",
    "environment_lines",
    "load_default_workloads",
    "memory_table",
    "percentiles_table",
    "read_bench_report",
    "read_history",
    "render_report",
    "resolve_tolerance",
    "result_line",
    "run_case",
    "run_cases",
    "run_suite",
    "timings_table",
    "validate_bench_file",
    "write_bench_report",
]
