"""End-to-end benchmark of ``repro``: one command, every metric, checked.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py [--workload NAME]... [--seed S]
        [--seconds T] [--trace [0|1]] [--out FILE]

Without ``--workload`` all four workloads run, each in a fresh process
of its own.  Every metric is printed by name with its unit; the last
line of standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}`` (with more than one workload, metric names are
prefixed ``<workload>.``).  ``--trace`` replaces the end-to-end metrics
with the per-layer ones.  The exit code is 0 only when every correctness
check passed; it is 2, with nothing on standard output, when the
``repro`` sources are not next to this file.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def _bootstrap() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    # The benchmark is the package ``e2e``: put its parent on the path in
    # place of this directory, whose ``trace.py`` would shadow the stdlib.
    sys.path[0] = str(HERE.parent)
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        print(f"error: cannot import repro from {src}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: repro came from {repro.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload in this process; print its lines, return its result."""
    from e2e.workloads import END_TO_END, PER_LAYER, WORKLOADS, end_to_end, per_layer

    outcome = WORKLOADS[name].run(seed, seconds, trace)
    values = per_layer(outcome) if trace else end_to_end(outcome)
    units = PER_LAYER if trace else END_TO_END
    for check, passed in outcome.checks.items():
        print(f"{name:8s} check {'pass' if passed else 'FAIL'}: {check}")
    for metric, value in values.items():
        print(f"{name:8s} {metric:36s} {value:14.6f} {units[metric]}")
    print(f"{name:8s} attempted {outcome.attempted} failed {outcome.failed}")
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in values.items()
        },
    }


def run_each(names, seed: int, seconds: float, trace: bool) -> dict:
    """Run every workload in a fresh child process; merge their results.

    ``ru_maxrss`` is a process's lifetime peak, so a workload measured
    after another in the same process would report the larger of the two.
    """
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        child = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(seed),
                "--seconds", repr(seconds), "--trace", str(int(trace)),
            ],
            stdout=subprocess.PIPE,
            text=True,
            check=False,
        )
        *lines, last = child.stdout.splitlines() or [""]
        for line in lines:
            print(line)
        sys.stdout.flush()
        try:
            result = json.loads(last)
        except ValueError:
            print(
                f"error: workload {name} exited with code {child.returncode} "
                "and no result",
                file=sys.stderr,
            )
            raise SystemExit(child.returncode or 1) from None
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the repro public API."
    )
    parser.add_argument(
        "--workload", action="append", metavar="NAME",
        help="batch, online, live or campaign (repeatable; default: all)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=20.0,
        help="measured seconds per workload (default: 20)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="per-layer run: half untraced, half with layers wrapped",
    )
    parser.add_argument("--out", help="also write the result JSON here")
    args = parser.parse_args(argv)
    _bootstrap()

    from e2e.workloads import WORKLOADS

    names = list(dict.fromkeys(args.workload or WORKLOADS))
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {list(WORKLOADS)}")
    trace = bool(args.trace)
    if len(names) == 1:
        result = run_one(names[0], args.seed, args.seconds, trace)
    else:
        result = run_each(names, args.seed, args.seconds, trace)
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
