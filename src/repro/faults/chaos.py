"""Chaos helpers: misbehaving campaign cells and fault-plan plumbing.

The campaign runner's robustness (per-cell timeout, bounded retry,
crash quarantine) needs cells that genuinely crash, hang, or fail
transiently -- *in worker processes*, where a test-local closure cannot
reach.  The builders here are module-level (hence picklable under the
``spawn`` start method) and read their misbehaviour schedule from
environment variables, which propagate to pool workers under both
``fork`` and ``spawn``:

=========================  ===========================================
variable                   effect on :func:`chaos_bounded_builder`
=========================  ===========================================
``REPRO_CHAOS_CRASH``      comma-separated seeds whose cell SIGKILLs
                           its own process (worker death)
``REPRO_CHAOS_HANG``       comma-separated seeds whose cell sleeps for
                           ``REPRO_CHAOS_HANG_SECONDS`` (default 60)
``REPRO_CHAOS_FLAKY``      comma-separated seeds whose cell raises
                           once, then succeeds -- attempt state lives
                           in marker files under ``REPRO_CHAOS_DIR``
=========================  ===========================================

With no variables set the builder is exactly the E9c workload
(``bounded_uniform(lb=1, ub=3, probes=2)``), so fault-free control runs
are byte-identical to :func:`repro.experiments.common.bounded_ring_builder`
campaigns cell for cell.

Chaos composes with the streaming runner: when a campaign runs with a
``results_dir``/sink, every quarantined chaos cell is persisted as a
durable ``campaign.cell.failure`` record in the shard's JSONL stream
(see :mod:`repro.runner.sink`), so a resumed shard does not retry a
cell already known to be poisonous, and the merge pipeline can tell a
quarantined cell (known failure) from a gap (missing data).
"""

from __future__ import annotations

import os
import signal
import time
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from typing import Callable, Dict, Iterator, Optional, Set

from repro.faults.plan import FaultPlan
from repro.graphs.topology import Topology
from repro.workloads.scenarios import Scenario, bounded_uniform

CRASH_ENV = "REPRO_CHAOS_CRASH"
HANG_ENV = "REPRO_CHAOS_HANG"
HANG_SECONDS_ENV = "REPRO_CHAOS_HANG_SECONDS"
FLAKY_ENV = "REPRO_CHAOS_FLAKY"
CHAOS_DIR_ENV = "REPRO_CHAOS_DIR"


def _env_seeds(name: str) -> Set[int]:
    raw = os.environ.get(name, "")
    return {int(part) for part in raw.split(",") if part.strip()}


class FlakyCellError(RuntimeError):
    """Raised by a flaky chaos cell on its first attempt."""


def chaos_bounded_builder(topology: Topology, seed: int) -> Scenario:
    """The E9c bounded workload, with env-scheduled misbehaviour.

    Crash/hang/flaky behaviour triggers *before* the scenario is built,
    so it hits whichever process executes the cell (a pool worker when
    the campaign runs on more than one worker).
    """
    if seed in _env_seeds(CRASH_ENV):
        os.kill(os.getpid(), signal.SIGKILL)
    if seed in _env_seeds(HANG_ENV):
        time.sleep(float(os.environ.get(HANG_SECONDS_ENV, "60")))
    if seed in _env_seeds(FLAKY_ENV):
        chaos_dir = os.environ.get(CHAOS_DIR_ENV)
        if chaos_dir is None:
            raise FlakyCellError(
                f"flaky cell (topology={topology.name}, seed={seed}) "
                f"with no {CHAOS_DIR_ENV} to record the attempt"
            )
        marker = Path(chaos_dir) / f"flaky-{topology.name}-{seed}"
        if not marker.exists():
            marker.write_text("attempt 1 failed\n")
            raise FlakyCellError(
                f"transient failure (topology={topology.name}, seed={seed})"
            )
    return bounded_uniform(topology, lb=1.0, ub=3.0, probes=2, seed=seed)


@contextmanager
def scheduled_chaos(
    crash: Optional[Set[int]] = None,
    hang: Optional[Set[int]] = None,
    flaky: Optional[Set[int]] = None,
    chaos_dir: Optional[str] = None,
    hang_seconds: Optional[float] = None,
) -> Iterator[None]:
    """Scoped chaos schedule: sets the env variables, restores on exit.

    Sugar over the raw environment protocol so tests and CI scripts
    stop hand-rolling ``monkeypatch.setenv`` ladders::

        with scheduled_chaos(crash={3}, flaky={5}, chaos_dir=tmp):
            outcome = campaign.run_results(..., retries=1)

    Seeds land in worker processes under both ``fork`` and ``spawn``
    because the schedule travels via ``os.environ``.
    """
    values: Dict[str, Optional[str]] = {
        CRASH_ENV: ",".join(str(s) for s in sorted(crash)) if crash else None,
        HANG_ENV: ",".join(str(s) for s in sorted(hang)) if hang else None,
        FLAKY_ENV: ",".join(str(s) for s in sorted(flaky)) if flaky else None,
        CHAOS_DIR_ENV: chaos_dir,
        HANG_SECONDS_ENV: (
            None if hang_seconds is None else repr(float(hang_seconds))
        ),
    }
    previous = {name: os.environ.get(name) for name in values}
    try:
        for name, value in values.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        yield
    finally:
        for name, value in previous.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _faulted_build(
    builder: Callable[[Topology, int], Scenario],
    plan: FaultPlan,
    topology: Topology,
    seed: int,
) -> Scenario:
    """Module-level target for :func:`with_fault_plan` (picklable)."""
    return builder(topology, seed).with_faults(plan)


def with_fault_plan(
    builder: Callable[[Topology, int], Scenario], plan: FaultPlan
) -> Callable[[Topology, int], Scenario]:
    """Wrap a scenario builder so every built scenario carries ``plan``.

    The wrapper is a :func:`functools.partial` over a module-level
    function, so it stays picklable whenever the wrapped builder is --
    campaigns can fan faulted cells out over process pools, and the
    content-addressed cache keys the plan (the scenario name and fault
    field change), so faulted and fault-free results never collide.
    """
    return partial(_faulted_build, builder, plan)


__all__ = [
    "CHAOS_DIR_ENV",
    "CRASH_ENV",
    "FLAKY_ENV",
    "FlakyCellError",
    "HANG_ENV",
    "HANG_SECONDS_ENV",
    "chaos_bounded_builder",
    "scheduled_chaos",
    "with_fault_plan",
]
