"""The cell executor: one streaming fan-out with one quarantine policy.

:func:`execute_cells` takes an ordered list of
:class:`~repro.runner.cells.CellTask` and yields ``(index, outcome)``
pairs in *completion* order, so callers (the streaming campaign runner,
its JSONL result sink) can durably persist and release each result the
moment it exists instead of holding the whole grid in memory.

It has two dispatch branches, chosen from what the call can observe:

* **in process** when ``workers == 1``, or when the batch has one cell
  and no quarantine (a pool costs ~worker-startup per run; under
  quarantine a lone cell -- typically a retry -- still gets a worker, so
  a crash stays contained).  This is the one branch where the observing
  process *is* the executing process, so it alone reports
  ``progress.cell_started``;
* **a process pool** (:class:`concurrent.futures.ProcessPoolExecutor`)
  otherwise.  Under the ``fork`` start method the task list is
  inherited by the workers at fork time, so builders may be closures or
  lambdas; under ``spawn`` (the fallback where ``fork`` is missing) the
  tasks travel by pickle, which requires module-level builders -- the
  error message says so when it bites.  The futures pool *detects* a
  worker dying mid-task (SIGKILL, OOM) and raises ``BrokenProcessPool``
  instead of hanging forever.

``quarantine`` is the one robustness policy, applied identically on
both branches by :func:`guard_cell`: a failing cell degrades to a typed
:class:`CellFailure` instead of aborting the sweep.  Without it the
cell's own exception propagates unchanged, and a dead worker raises
``BrokenProcessPool``.  With it, cells left unresolved by a broken pool
are re-run one at a time in fresh single-worker pools, so exactly the
culprit cells are reported as ``crash`` failures and every innocent
bystander still completes.  ``timeout`` is a per-cell wall-clock budget
enforced by ``SIGALRM`` inside whichever process runs the cell.

Telemetry goes to the ambient recorder (no-op unless observability is
enabled) and to ``registry``: a ``campaign.execute`` span around the
fan out, and for every settled cell -- result or failure, whatever the
branch -- exactly one ``campaign.cell.seconds`` observation, one
``campaign.queue.depth`` sample of the cells still pending, and one
``campaign.cells.completed`` increment, so any exporter -- not just
heartbeat files -- can derive progress.  ``progress`` is an optional
listener (anything with ``cell_started(key)`` /
``cell_finished(seconds)``, typically a
:class:`~repro.runner.heartbeat.HeartbeatWriter`): the fleet-liveness
hook.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
import pickle
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, Tuple, Union

from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import get_recorder
from repro.runner.cells import CellOutcome, CellTask, execute_cell

try:  # BrokenProcessPool moved around between 3.x versions
    from concurrent.futures.process import BrokenProcessPool
except ImportError:  # pragma: no cover
    BrokenProcessPool = concurrent.futures.BrokenExecutor  # type: ignore

#: Histogram boundaries for pending-cell counts (same integer ladder the
#: simulator uses for scheduler queue depth).
QUEUE_DEPTH_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)

#: Environment variable consulted when no explicit worker count is given.
WORKERS_ENV = "REPRO_WORKERS"

_default_workers: Optional[int] = None

#: Pool worker state: the task list (fork-inherited, or shipped by the
#: initializer under spawn), the per-cell budget and the policy.
_WORKER_TASKS: Optional[Sequence[CellTask]] = None
_WORKER_TIMEOUT: Optional[float] = None
_WORKER_QUARANTINE = False


class CellTimeoutError(RuntimeError):
    """A cell exceeded its per-cell wall-clock budget."""


@dataclass(frozen=True)
class CellFailure:
    """A cell that could not produce a result, with why and how hard we tried.

    ``kind`` is ``"timeout"`` (exceeded the per-cell budget), ``"crash"``
    (the worker process died -- SIGKILL, OOM, segfault) or ``"error"``
    (the cell raised an ordinary exception).  Robust campaign runs
    quarantine these instead of hanging or aborting the whole sweep;
    the streaming result sink persists them as ``campaign.cell.failure``
    JSONL records so shard merges can tell a quarantined cell from a
    gap.
    """

    scenario: str
    topology: str
    seed: int
    kind: str
    message: str
    attempts: int = 1

    @property
    def key(self) -> Tuple[str, str, int]:
        """The failed cell's identity (same shape as ``CellSpec.key``)."""
        return (self.scenario, self.topology, self.seed)

    def to_json(self) -> dict:
        return {
            "type": "campaign.cell.failure",
            "scenario": self.scenario,
            "topology": self.topology,
            "seed": self.seed,
            "kind": self.kind,
            "message": self.message,
            "attempts": self.attempts,
        }

    @classmethod
    def from_json(cls, data: dict) -> "CellFailure":
        """Rebuild a failure from :meth:`to_json` output."""
        if data.get("type") != "campaign.cell.failure":
            raise ValueError(
                f"not a campaign.cell.failure record: "
                f"type={data.get('type')!r}"
            )
        return cls(
            scenario=data["scenario"],
            topology=data["topology"],
            seed=int(data["seed"]),
            kind=data["kind"],
            message=data["message"],
            attempts=int(data.get("attempts", 1)),
        )


def resolve_start_method(preferred: Optional[str] = None) -> str:
    """The multiprocessing start method to use: ``fork`` with ``spawn`` fallback.

    ``fork`` keeps closures/lambdas working (children inherit the task
    list); platforms without it (Windows, and macOS where ``fork`` is
    unsafe with threads) fall back to ``spawn``, where tasks travel by
    pickle.  An explicit ``preferred`` is validated against the
    platform's supported methods.
    """
    methods = multiprocessing.get_all_start_methods()
    if preferred is not None:
        if preferred not in methods:
            raise ValueError(
                f"start method {preferred!r} not supported here; "
                f"available: {methods}"
            )
        return preferred
    if "fork" in methods:
        return "fork"
    return "spawn" if "spawn" in methods else methods[0]


def set_default_workers(workers: Optional[int]) -> Optional[int]:
    """Install a process-wide default worker count; returns the previous.

    ``None`` clears the default (the :data:`WORKERS_ENV` variable, then
    1, applies).  The CLI uses this to let ``--workers`` on one
    subcommand reach every campaign the command runs.
    """
    global _default_workers
    previous = _default_workers
    _default_workers = None if workers is None else max(1, int(workers))
    return previous


@contextmanager
def default_workers(workers: Optional[int]) -> Iterator[None]:
    """Scoped :func:`set_default_workers` (restores on exit)."""
    previous = set_default_workers(workers)
    try:
        yield
    finally:
        set_default_workers(previous)


def resolve_workers(workers: Optional[int] = None) -> int:
    """The effective worker count: explicit > default > env > 1."""
    if workers is not None:
        return max(1, int(workers))
    if _default_workers is not None:
        return _default_workers
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(
                f"{WORKERS_ENV} must be an integer, got {env!r}"
            ) from None
    return 1


def _observe_batch(
    registry: Optional[MetricsRegistry], cells: int
) -> None:
    """Declare the batch size as the total gauge, unless a wider owner
    (the campaign runner, which knows the whole grid) already did."""
    if registry is None:
        return
    if registry.get("campaign.cells.total") is None:
        registry.gauge("campaign.cells.total").set(cells)


def _observe_completion(
    registry: Optional[MetricsRegistry],
    pending: int,
    seconds: float,
    progress=None,
) -> None:
    """Record one settled cell into ``registry`` and ``progress``."""
    if registry is not None:
        registry.histogram(
            "campaign.queue.depth", boundaries=QUEUE_DEPTH_BUCKETS
        ).observe(pending)
        registry.histogram("campaign.cell.seconds").observe(seconds)
        registry.gauge("campaign.cells.completed").add(1)
    if progress is not None:
        progress.cell_finished(seconds)


# ----------------------------------------------------------------------
# The quarantine policy: timeout + failure degradation
# ----------------------------------------------------------------------

#: One executed-or-failed entry per input task.
RobustOutcome = Union[CellOutcome, CellFailure]


def _failure(task: CellTask, kind: str, message: str) -> CellFailure:
    spec = task.spec
    return CellFailure(
        scenario=spec.builder,
        topology=spec.topology.name,
        seed=spec.seed,
        kind=kind,
        message=message,
    )


def guard_cell(
    task: CellTask, run: Callable[[], CellOutcome]
) -> RobustOutcome:
    """Run one cell, degrading any failure to a :class:`CellFailure`.

    The quarantine policy: a :class:`CellTimeoutError` becomes a
    ``timeout`` failure, any other exception an ``error`` failure, and
    nothing short of worker death (which only the pool can contain, as
    a ``crash``) propagates.
    """
    try:
        return run()
    except CellTimeoutError as exc:
        return _failure(task, "timeout", str(exc))
    except Exception as exc:  # noqa: BLE001 -- quarantine, not crash
        return _failure(task, "error", f"{type(exc).__name__}: {exc}")


def _raise_cell_timeout(signum, frame):
    raise CellTimeoutError("cell exceeded its wall-clock budget")


@contextmanager
def _cell_alarm(timeout: Optional[float]) -> Iterator[None]:
    """Arm SIGALRM for ``timeout`` seconds around one cell, when possible.

    Timeouts need a main-thread POSIX process (``signal.setitimer``); on
    other configurations the context is a no-op and hung cells are only
    contained by worker death (``crash``) handling.
    """
    usable = (
        timeout is not None
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return
    previous = signal.signal(signal.SIGALRM, _raise_cell_timeout)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _run_one(
    task: CellTask, timeout: Optional[float], quarantine: bool
) -> Tuple[RobustOutcome, float]:
    """One cell under the budget and policy; returns (outcome, seconds).

    The same function runs the cell on both branches -- inline, and in
    a pool worker's main thread, where the SIGALRM budget applies to
    whatever the cell does, including sleeping.
    """

    def run() -> CellOutcome:
        with _cell_alarm(timeout):
            return execute_cell(task)

    started = time.perf_counter()
    outcome = guard_cell(task, run) if quarantine else run()
    return outcome, time.perf_counter() - started


def _worker_init(
    tasks: Optional[Sequence[CellTask]],
    timeout: Optional[float],
    quarantine: bool,
) -> None:
    """Pool initializer: tasks under spawn (inherited under fork) + policy."""
    global _WORKER_TASKS, _WORKER_TIMEOUT, _WORKER_QUARANTINE
    if tasks is not None:
        _WORKER_TASKS = tasks
    _WORKER_TIMEOUT = timeout
    _WORKER_QUARANTINE = quarantine
    threading.Thread(target=_exit_with_parent, daemon=True).start()


def _exit_with_parent() -> None:
    """Pool worker watchdog: exit as soon as the parent process is gone.

    An idle futures-pool worker blocks on a queue whose write end it
    holds itself, so a campaign killed mid-run (``kill -9`` of a shard,
    then ``--resume``) would otherwise leave its workers behind forever.
    SIGALRM is blocked here so the cell budget always interrupts the
    main thread, which runs the cell.
    """
    if hasattr(signal, "pthread_sigmask"):
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    multiprocessing.parent_process().join()
    os._exit(1)


def _run_indexed(index: int) -> Tuple[RobustOutcome, float]:
    """Pool worker entry: execute the inherited task at ``index``."""
    assert _WORKER_TASKS is not None, "worker pool not initialized"
    return _run_one(_WORKER_TASKS[index], _WORKER_TIMEOUT, _WORKER_QUARANTINE)


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------

def execute_cells(
    tasks: Sequence[CellTask],
    workers: Optional[int] = None,
    *,
    timeout: Optional[float] = None,
    quarantine: bool = False,
    registry: Optional[MetricsRegistry] = None,
    progress=None,
    start_method: Optional[str] = None,
) -> Iterator[Tuple[int, RobustOutcome]]:
    """Run ``tasks``; yield ``(index, CellOutcome | CellFailure)`` as each settles.

    ``workers`` resolves via :func:`resolve_workers`; one worker, or one
    cell without quarantine, runs in process, anything else on a process
    pool started with :func:`resolve_start_method` (``start_method``
    overrides it).
    ``timeout`` is the per-cell budget; ``quarantine`` degrades failures
    to :class:`CellFailure` (see the module docstring).  Outcomes are
    identical on both branches; only completion order and wall-clock
    seconds differ.
    """
    task_list = list(tasks)
    if not task_list:
        return
    count = resolve_workers(workers)
    _observe_batch(registry, len(task_list))
    if count == 1 or (len(task_list) == 1 and not quarantine):
        yield from _in_process(
            task_list, timeout, quarantine, registry, progress
        )
    else:
        yield from _pooled(
            task_list, count, resolve_start_method(start_method),
            timeout, quarantine, registry, progress,
        )


def _in_process(
    task_list: Sequence[CellTask],
    timeout: Optional[float],
    quarantine: bool,
    registry: Optional[MetricsRegistry],
    progress,
) -> Iterator[Tuple[int, RobustOutcome]]:
    recorder = get_recorder()
    with recorder.span(
        "campaign.execute",
        workers=1,
        cells=len(task_list),
        quarantine=quarantine,
    ):
        pending = len(task_list)
        for index, task in enumerate(task_list):
            if progress is not None:
                progress.cell_started(task.spec.key)
            with recorder.span(
                "campaign.cell",
                scenario=task.spec.scenario_key,
                seed=task.spec.seed,
            ):
                outcome, seconds = _run_one(task, timeout, quarantine)
            pending -= 1
            _observe_completion(registry, pending, seconds, progress)
            yield index, outcome


@contextmanager
def _pool(
    task_list: Sequence[CellTask],
    workers: int,
    start_method: str,
    timeout: Optional[float],
    quarantine: bool,
) -> Iterator[concurrent.futures.ProcessPoolExecutor]:
    """A futures pool whose workers see ``task_list`` and the policy.

    Under fork the children inherit the module global; under spawn the
    initializer ships a pickled copy instead.  On an early exit (a cell
    raised, the consumer stopped) queued cells are cancelled, so only
    the cells already running are waited for.
    """
    global _WORKER_TASKS
    shipped = None if start_method == "fork" else task_list
    _WORKER_TASKS = task_list
    pool = concurrent.futures.ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context(start_method),
        initializer=_worker_init,
        initargs=(shipped, timeout, quarantine),
    )
    try:
        yield pool
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
        _WORKER_TASKS = None


def _submit(pool, indices: Sequence[int]) -> dict:
    """Submit cells by index; explain an unpicklable builder under spawn."""
    try:
        return {pool.submit(_run_indexed, i): i for i in indices}
    except (AttributeError, pickle.PicklingError) as exc:
        raise RuntimeError(
            "campaign builders must be picklable (module-level "
            "functions) to run under the 'spawn' start method; "
            "use workers=1 or define the builder at module scope"
        ) from exc


def _pooled(
    task_list: Sequence[CellTask],
    workers: int,
    start_method: str,
    timeout: Optional[float],
    quarantine: bool,
    registry: Optional[MetricsRegistry],
    progress,
) -> Iterator[Tuple[int, RobustOutcome]]:
    recorder = get_recorder()
    pending = len(task_list)
    unresolved = []
    with recorder.span(
        "campaign.execute",
        workers=workers,
        cells=len(task_list),
        start_method=start_method,
        quarantine=quarantine,
    ):
        with _pool(
            task_list, workers, start_method, timeout, quarantine
        ) as pool:
            futures = _submit(pool, range(len(task_list)))
            for future in concurrent.futures.as_completed(futures):
                index = futures[future]
                try:
                    outcome, seconds = future.result()
                except BrokenProcessPool:
                    if not quarantine:
                        raise
                    # Some worker died; which cell killed it is not
                    # knowable here, so re-run the unresolved cells in
                    # isolation below.
                    unresolved.append(index)
                    continue
                pending -= 1
                _observe_completion(registry, pending, seconds, progress)
                yield index, outcome
        for index in sorted(unresolved):
            outcome, seconds = _run_isolated(
                task_list, index, start_method, timeout
            )
            pending -= 1
            _observe_completion(registry, pending, seconds, progress)
            yield index, outcome


def _run_isolated(
    task_list: Sequence[CellTask],
    index: int,
    start_method: str,
    timeout: Optional[float],
) -> Tuple[RobustOutcome, float]:
    """Re-run one cell in a fresh single-worker pool.

    If the pool breaks again, *this* cell is the culprit and is reported
    as a ``crash``; otherwise the cell was an innocent casualty of a
    sibling's crash and completes normally.
    """
    started = time.perf_counter()
    with _pool(task_list, 1, start_method, timeout, True) as pool:
        (future,) = _submit(pool, [index])
        try:
            return future.result()
        except BrokenProcessPool:
            failure = _failure(
                task_list[index],
                "crash",
                "worker process died while executing this cell",
            )
            return failure, time.perf_counter() - started


__all__ = [
    "CellFailure",
    "CellTimeoutError",
    "QUEUE_DEPTH_BUCKETS",
    "RobustOutcome",
    "WORKERS_ENV",
    "default_workers",
    "execute_cells",
    "guard_cell",
    "resolve_start_method",
    "resolve_workers",
    "set_default_workers",
]
