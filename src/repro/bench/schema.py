"""Versioned benchmark result schema: BenchResult / BenchReport + I/O.

The schema makes performance numbers *self-describing*: every report
embeds an environment fingerprint (python/numpy versions, platform,
CPU count, hostname, git SHA) so numbers measured on different machines
are never silently compared, and every result carries its raw repeat
samples so downstream comparisons can be noise-aware instead of
trusting a single scalar.

Two serialized forms share one record shape (following the
``repro.obs.export`` conventions):

* **document** -- one pretty-printed JSON object per file
  (``BENCH_engine.json``, ``BENCH_baseline.json``); human-diffable.
* **JSONL history** -- one compact document per line appended run after
  run (``BENCH_history.jsonl``); the cross-PR bench trajectory.

``validate_bench_file`` re-reads what the writers produced and is run
by tests and the CI ``perf`` job.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.records import (
    PathLike,
    RecordError,
    append_record,
    iter_records,
    seal,
    write_atomic,
)


#: Bump when a record's shape changes incompatibly.
BENCH_SCHEMA_VERSION = 1

REPORT_RECORD = "bench_report"
RESULT_RECORD = "bench_result"

#: Fields of the environment that define comparability.  Two runs whose
#: values differ on any of these measured *different things* and must
#: not be diffed silently (git SHA deliberately excluded: comparing
#: across commits on one machine is the whole point of a baseline).
_FINGERPRINT_FIELDS = (
    "python", "numpy", "platform", "machine", "hostname",
    "cpu_count", "effective_cpus",
)


def _effective_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _git_sha() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.TimeoutExpired):  # pragma: no cover
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


@dataclass(frozen=True)
class EnvFingerprint:
    """Where a benchmark ran; the comparability key of a report."""

    python: str
    numpy: str
    platform: str
    machine: str
    hostname: str
    cpu_count: int
    effective_cpus: int
    git_sha: Optional[str] = None

    @classmethod
    def capture(cls) -> "EnvFingerprint":
        import numpy

        return cls(
            python=platform.python_version(),
            numpy=numpy.__version__,
            platform=sys.platform,
            machine=platform.machine(),
            hostname=socket.gethostname(),
            cpu_count=os.cpu_count() or 1,
            effective_cpus=_effective_cpus(),
            git_sha=_git_sha(),
        )

    @property
    def fingerprint(self) -> str:
        """Stable digest of the comparability-defining fields."""
        payload = json.dumps(
            {k: getattr(self, k) for k in _FINGERPRINT_FIELDS},
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def comparable_with(self, other: "EnvFingerprint") -> bool:
        return self.fingerprint == other.fingerprint

    def to_json(self) -> Dict[str, object]:
        out = {k: getattr(self, k) for k in _FINGERPRINT_FIELDS}
        out["git_sha"] = self.git_sha
        out["fingerprint"] = self.fingerprint
        return out

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "EnvFingerprint":
        kwargs = {k: data[k] for k in _FINGERPRINT_FIELDS}
        return cls(git_sha=data.get("git_sha"), **kwargs)  # type: ignore[arg-type]


@dataclass(frozen=True)
class SampleStats:
    """Summary of one timing series, raw samples preserved.

    ``trimmed_mean`` drops the slowest 20% of samples (at least one,
    only when there are >= 5) before averaging -- the cheap noise model
    for a shared machine where stray scheduler hiccups inflate the tail
    but never deflate the floor.
    """

    samples: Tuple[float, ...]

    @property
    def min(self) -> float:
        return min(self.samples)

    @property
    def max(self) -> float:
        return max(self.samples)

    @property
    def mean(self) -> float:
        return statistics.fmean(self.samples)

    @property
    def median(self) -> float:
        return statistics.median(self.samples)

    @property
    def trimmed_mean(self) -> float:
        if len(self.samples) < 5:
            return self.mean
        drop = max(1, len(self.samples) // 5)
        kept = sorted(self.samples)[:-drop]
        return statistics.fmean(kept)

    def to_json(self) -> Dict[str, object]:
        return {
            "min": self.min,
            "median": self.median,
            "mean": self.mean,
            "trimmed_mean": self.trimmed_mean,
            "max": self.max,
            "samples": list(self.samples),
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "SampleStats":
        return cls(samples=tuple(float(s) for s in data["samples"]))


def _params_key(name: str, params: Dict[str, object]) -> str:
    if not params:
        return name
    inner = ",".join(f"{k}={params[k]}" for k in sorted(params))
    return f"{name}[{inner}]"


@dataclass(frozen=True)
class BenchResult:
    """One benchmark's measurements in one run."""

    name: str
    params: Dict[str, object]
    wall: SampleStats
    cpu: SampleStats
    warmup: int
    peak_tracemalloc_bytes: Optional[int] = None
    peak_rss_bytes: Optional[int] = None
    #: Latency percentiles pulled from named obs histograms during the
    #: instrumented pass: ``{histogram: {"count": n, "p50": ..., ...}}``.
    percentiles: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Free-form benchmark-specific payload (speedups, precisions, ...).
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def key(self) -> str:
        """Stable identity used to match results across runs."""
        return _params_key(self.name, self.params)

    @property
    def repeats(self) -> int:
        return len(self.wall.samples)

    def to_json(self) -> Dict[str, object]:
        return {
            "record": RESULT_RECORD,
            "name": self.name,
            "params": dict(self.params),
            "key": self.key,
            "repeats": self.repeats,
            "warmup": self.warmup,
            "wall": self.wall.to_json(),
            "cpu": self.cpu.to_json(),
            "peak_tracemalloc_bytes": self.peak_tracemalloc_bytes,
            "peak_rss_bytes": self.peak_rss_bytes,
            "percentiles": self.percentiles,
            "extra": self.extra,
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "BenchResult":
        if data.get("record") != RESULT_RECORD:
            raise BenchSchemaError(
                f"not a {RESULT_RECORD} record: {data.get('record')!r}"
            )
        return cls(
            name=str(data["name"]),
            params=dict(data.get("params") or {}),
            wall=SampleStats.from_json(data["wall"]),  # type: ignore[arg-type]
            cpu=SampleStats.from_json(data["cpu"]),  # type: ignore[arg-type]
            warmup=int(data.get("warmup", 0)),
            peak_tracemalloc_bytes=data.get("peak_tracemalloc_bytes"),
            peak_rss_bytes=data.get("peak_rss_bytes"),
            percentiles={
                str(k): dict(v)
                for k, v in (data.get("percentiles") or {}).items()
            },
            extra=dict(data.get("extra") or {}),
        )


@dataclass
class BenchReport:
    """One benchmark run: environment + options + results."""

    env: EnvFingerprint
    suite: str
    results: List[BenchResult] = field(default_factory=list)
    created_unix: float = 0.0
    options: Dict[str, object] = field(default_factory=dict)
    meta: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.created_unix:
            self.created_unix = time.time()

    def result(self, key: str) -> Optional[BenchResult]:
        for r in self.results:
            if r.key == key:
                return r
        return None

    def by_key(self) -> Dict[str, BenchResult]:
        return {r.key: r for r in self.results}

    def to_json(self) -> Dict[str, object]:
        return {
            "record": REPORT_RECORD,
            "schema": BENCH_SCHEMA_VERSION,
            "suite": self.suite,
            "created_unix": self.created_unix,
            "env": self.env.to_json(),
            "options": dict(self.options),
            "meta": dict(self.meta),
            "results": [r.to_json() for r in self.results],
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "BenchReport":
        if data.get("record") != REPORT_RECORD:
            raise BenchSchemaError(
                f"not a {REPORT_RECORD} document: record="
                f"{data.get('record')!r}"
            )
        schema = data.get("schema")
        if schema != BENCH_SCHEMA_VERSION:
            raise BenchSchemaError(
                f"unsupported bench schema version {schema!r} "
                f"(this build reads {BENCH_SCHEMA_VERSION})"
            )
        return cls(
            env=EnvFingerprint.from_json(data["env"]),  # type: ignore[arg-type]
            suite=str(data.get("suite", "")),
            results=[
                BenchResult.from_json(r) for r in data.get("results", [])
            ],
            created_unix=float(data.get("created_unix", 0.0)),
            options=dict(data.get("options") or {}),
            meta=dict(data.get("meta") or {}),
        )


class BenchSchemaError(ValueError):
    """A bench file or record does not match the schema."""


# ----------------------------------------------------------------------
# Document I/O
# ----------------------------------------------------------------------

def write_bench_report(
    path: PathLike, report: BenchReport, indent: Optional[int] = 2
) -> Path:
    """Write one report as a JSON document; returns the path."""
    return write_atomic(
        path, json.dumps(report.to_json(), indent=indent, sort_keys=True) + "\n"
    )


def read_bench_report(path: PathLike) -> BenchReport:
    """Read a single-document report file."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise BenchSchemaError(
            f"{path}: not a bench report document"
        )
    return BenchReport.from_json(data)


# ----------------------------------------------------------------------
# History (JSONL, one compact report per line)
# ----------------------------------------------------------------------

def append_history(path: PathLike, report: BenchReport) -> Path:
    """Append one run to a JSONL history file; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    seal(path)  # a torn earlier append must not swallow this record
    with open(path, "ab") as handle:
        append_record(handle, report.to_json())
    return path


def read_history(path: PathLike) -> List[BenchReport]:
    """All runs recorded in a JSONL history file, oldest first.

    A torn final append is dropped (:mod:`repro.records`); any other
    bad line raises :class:`BenchSchemaError` naming ``path:line``.
    """
    reports: List[BenchReport] = []
    try:
        for lineno, data in iter_records(path):
            reports.append(BenchReport.from_json(data))
    except RecordError as exc:
        raise BenchSchemaError(str(exc)) from None
    except (BenchSchemaError, KeyError) as exc:
        raise BenchSchemaError(f"{path}:{lineno}: {exc}") from exc
    return reports


# ----------------------------------------------------------------------
# Validation (tests + the CI perf job)
# ----------------------------------------------------------------------

def validate_bench_file(path: PathLike) -> int:
    """Validate a report document or JSONL history; returns result count.

    Raises :class:`BenchSchemaError` on any malformed document, record,
    or summary-vs-samples mismatch, so CI can use it as an assertion.
    """
    text = Path(path).read_text()
    stripped = text.lstrip()
    if not stripped:
        raise BenchSchemaError(f"{path}: empty file")
    if stripped.startswith("["):
        raise BenchSchemaError(
            f"{path}: legacy bare-list format (pre-schema); regenerate "
            f"with the bench harness"
        )
    if stripped.startswith("{") and "\n{" not in text.strip():
        reports = [BenchReport.from_json(json.loads(text))]
    else:
        reports = read_history(path)
    results = 0
    for report in reports:
        _validate_report(path, report)
        results += len(report.results)
    return results


def _validate_report(path: PathLike, report: BenchReport) -> None:
    if not report.env.fingerprint:
        raise BenchSchemaError(f"{path}: report has no env fingerprint")
    seen: Dict[str, bool] = {}
    for result in report.results:
        if result.key in seen:
            raise BenchSchemaError(
                f"{path}: duplicate result key {result.key!r}"
            )
        seen[result.key] = True
        for label, stats in (("wall", result.wall), ("cpu", result.cpu)):
            if not stats.samples:
                raise BenchSchemaError(
                    f"{path}: {result.key} has no {label} samples"
                )
            if any(s < 0 for s in stats.samples):
                raise BenchSchemaError(
                    f"{path}: {result.key} has negative {label} samples"
                )


__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BenchReport",
    "BenchResult",
    "BenchSchemaError",
    "EnvFingerprint",
    "SampleStats",
    "append_history",
    "read_bench_report",
    "read_history",
    "validate_bench_file",
    "write_bench_report",
]
