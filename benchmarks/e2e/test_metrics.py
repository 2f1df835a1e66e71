"""Every metric ``BENCHMARK.json`` names is emitted, with its unit."""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

from e2e.workloads import (
    END_TO_END,
    PER_LAYER,
    ROOT,
    Batch,
    Live,
    Online,
    Sweep,
    end_to_end,
    per_layer,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: The real workloads at toy sizes, so a short run of each takes seconds.
SMALL = {
    "batch": Batch(n=16, link_prob=0.2, inputs=2, setup_repeats=1),
    "online": Online(n=12, link_prob=0.3, setup_repeats=1),
    "live": Live(setup_repeats=1),
    "campaign": Sweep(sizes=(4, 6), seeds_per_chunk=4, setup_repeats=1),
}


def test_spec_lists_exactly_the_emitted_metrics_and_workloads():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(SMALL)


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("name", list(SMALL))
def test_short_run_emits_every_metric(name, trace):
    outcome = SMALL[name].run(seed=3, seconds=0.2, trace=trace)
    assert outcome.checks and outcome.correct, outcome.checks
    assert outcome.failed == 0
    metrics = per_layer(outcome) if trace else end_to_end(outcome)
    expected = PER_LAYER if trace else END_TO_END
    assert set(metrics) == set(expected)
    assert all(math.isfinite(v) for v in metrics.values()), metrics
    if not trace:
        assert all(v > 0 for v in metrics.values()), metrics


def _run(cwd, *args):
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )


def test_command_prints_the_contract_json_last_one_process_per_workload():
    done = _run(ROOT, "--workload", "batch", "--workload", "online",
                "--seed", "2", "--seconds", "0.1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {
        f"{workload}.{name}": unit
        for workload in ("batch", "online")
        for name, unit in END_TO_END.items()
    }
    # batch peaks near 65 MB and online near 48 MB; ru_maxrss never
    # falls, so online measured after batch in one process would read 65.
    assert (
        metrics["online.peak_rss_mb"]["value"]
        < metrics["batch.peak_rss_mb"]["value"]
    )


def test_command_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = _run(tmp_path, "--workload", "batch", "--seed", "1", "--seconds",
                "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
