"""Robust campaign execution (repro.runner.executor + parallel runner).

Worker death, hung cells, transient failures and cache corruption must
degrade to quarantined/retried cells and counters -- never to a hung
pool or an aborted sweep.  The misbehaving cells come from
:mod:`repro.faults.chaos`, whose builders read their schedule from
environment variables (so they misbehave inside pool workers too).
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro

from repro.faults.chaos import (
    CHAOS_DIR_ENV,
    CRASH_ENV,
    FLAKY_ENV,
    HANG_ENV,
    HANG_SECONDS_ENV,
    chaos_bounded_builder,
)
from repro.graphs.topology import ring
from repro.runner.cache import CACHE_VERSION, ResultCache, cell_cache_key
from repro.runner.cells import CellSpec, CellTask
from repro.obs.metrics import MetricsRegistry
from repro.runner.executor import (
    CellFailure,
    execute_cells,
    resolve_start_method,
)
from repro.workloads.parallel import run_campaign

HAS_SIGALRM = hasattr(signal, "SIGALRM")
PROC = Path("/proc")

#: A two-worker chaos campaign over seeds 0-2, run in a child process by
#: the tests that need to survive, watch or kill the whole run.  argv[1]
#: holds extra run_campaign options as JSON; the quarantined cells are
#: printed as [seed, kind, attempts] rows.
CHAOS_CAMPAIGN = """
import json, sys
from repro.faults.chaos import chaos_bounded_builder
from repro.graphs.topology import ring
from repro.runner.cells import CellSpec, CellTask
from repro.workloads.parallel import run_campaign
outcome = run_campaign([
    CellTask(
        spec=CellSpec(builder="chaos-bounded", topology=ring(4), seed=seed),
        build=chaos_bounded_builder,
    )
    for seed in (0, 1, 2)
], workers=2, **json.loads(sys.argv[1]))
print(json.dumps([[f.seed, f.kind, f.attempts] for f in outcome.quarantined]))
"""


def run_chaos_campaign(options, **chaos):
    """CHAOS_CAMPAIGN in a child process under a bounded wait."""
    try:
        return subprocess.run(
            [sys.executable, "-c", CHAOS_CAMPAIGN, json.dumps(options)],
            env=child_env(**chaos),
            capture_output=True,
            text=True,
            timeout=60,
        )
    except subprocess.TimeoutExpired:
        pytest.fail(f"chaos campaign {options} hung")


def child_env(**chaos):
    env = dict(os.environ, **chaos)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    return env


def proc_stat(pid):
    """(state, ppid) of ``pid`` from /proc, or None once it is gone."""
    try:
        text = (PROC / str(pid) / "stat").read_text()
    except OSError:
        return None
    state, ppid = text.rsplit(")", 1)[1].split()[:2]
    return state, int(ppid)


def is_alive(pid):
    stat = proc_stat(pid)
    return stat is not None and stat[0] != "Z"


def live_children(parent):
    found = []
    for entry in PROC.iterdir():
        stat = proc_stat(entry.name) if entry.name.isdigit() else None
        if stat is not None and stat[0] != "Z" and stat[1] == parent:
            found.append(int(entry.name))
    return found


def wait_for(probe, seconds):
    """Poll ``probe`` until it returns something truthy or time runs out."""
    deadline = time.monotonic() + seconds
    while True:
        found = probe()
        if found or time.monotonic() > deadline:
            return found
        time.sleep(0.05)


def chaos_tasks(seeds, certify=True):
    return [
        CellTask(
            spec=CellSpec(
                builder="chaos-bounded", topology=ring(4), seed=seed
            ),
            build=chaos_bounded_builder,
            certify=certify,
        )
        for seed in seeds
    ]


def run_cells(tasks, workers, **options):
    """``execute_cells`` outcomes, back in input order."""
    stream = execute_cells(tasks, workers, **options)
    return [outcome for _, outcome in sorted(stream, key=lambda p: p[0])]


def clean_env(monkeypatch):
    for name in (CRASH_ENV, HANG_ENV, HANG_SECONDS_ENV, FLAKY_ENV,
                 CHAOS_DIR_ENV):
        monkeypatch.delenv(name, raising=False)


class TestStartMethod:
    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="not supported"):
            resolve_start_method("teleport")

    def test_honors_explicit_spawn(self):
        assert resolve_start_method("spawn") == "spawn"

    def test_defaults_to_fork_where_available(self):
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            assert resolve_start_method() == "fork"
        else:  # pragma: no cover - non-POSIX platforms
            assert resolve_start_method() == "spawn"


class TestSpawnPath:
    def test_process_executor_spawn_matches_sequential(self, monkeypatch):
        """Module-level builders travel by pickle under spawn."""
        clean_env(monkeypatch)
        tasks = chaos_tasks([0, 1])
        sequential = run_cells(tasks, 1)
        spawned = run_cells(tasks, 2, start_method="spawn")
        # Fingerprints exclude wall-clock seconds, which legitimately
        # differ between runs.
        assert [o.result.fingerprint() for o in spawned] == [
            o.result.fingerprint() for o in sequential
        ]

    def test_robust_executor_spawn_path(self, monkeypatch):
        clean_env(monkeypatch)
        tasks = chaos_tasks([0, 1])
        outcomes = run_cells(
            tasks, 2, quarantine=True, start_method="spawn"
        )
        assert not any(isinstance(o, CellFailure) for o in outcomes)
        assert [o.result.seed for o in outcomes] == [0, 1]

    def test_unpicklable_builder_is_explained(self):
        tasks = [
            CellTask(
                spec=CellSpec(builder="local", topology=ring(4), seed=seed),
                build=lambda topology, seed: None,
            )
            for seed in (0, 1)
        ]
        with pytest.raises(RuntimeError, match="must be picklable"):
            run_cells(tasks, 2, start_method="spawn")


class TestWorkerDeath:
    def test_sigkilled_worker_is_quarantined_not_hung(self, monkeypatch):
        """BrokenProcessPool containment: the culprit cell is identified,
        innocent bystanders still complete."""
        clean_env(monkeypatch)
        monkeypatch.setenv(CRASH_ENV, "1")
        tasks = chaos_tasks([0, 1, 2])
        outcomes = run_cells(tasks, 2, quarantine=True)
        kinds = [
            o.kind if isinstance(o, CellFailure) else "ok" for o in outcomes
        ]
        assert kinds == ["ok", "crash", "ok"]
        failure = outcomes[1]
        assert failure.seed == 1
        assert "died" in failure.message

    def test_crash_failure_serializes(self, monkeypatch):
        clean_env(monkeypatch)
        monkeypatch.setenv(CRASH_ENV, "0")
        (outcome,) = [
            o
            for o in run_cells(chaos_tasks([0, 3]), 2, quarantine=True)
            if isinstance(o, CellFailure)
        ]
        record = outcome.to_json()
        assert record["type"] == "campaign.cell.failure"
        assert record["kind"] == "crash"

    def test_crash_settles_every_cell_once(self, monkeypatch):
        clean_env(monkeypatch)
        monkeypatch.setenv(CRASH_ENV, "1")
        registry = MetricsRegistry()
        run_cells(chaos_tasks([0, 1, 2]), 2, quarantine=True,
                  registry=registry)
        assert registry.get("campaign.queue.depth").count == 3
        assert registry.get("campaign.cell.seconds").count == 3
        assert registry.get("campaign.cells.completed").value == 3

    def test_plain_run_fails_instead_of_hanging(self, monkeypatch):
        """Without quarantine a dead worker fails the run with
        BrokenProcessPool.  The run happens in a child process under a
        bounded wait, so a hang fails this test instead of wedging the
        suite."""
        clean_env(monkeypatch)
        child = run_chaos_campaign({}, **{CRASH_ENV: "1"})
        assert child.returncode != 0
        assert "BrokenProcessPool" in child.stderr

    def test_retried_crash_stays_contained(self, monkeypatch):
        """The retry of a lone crashed cell still runs in a pool worker,
        so its second crash is quarantined instead of killing the run."""
        clean_env(monkeypatch)
        child = run_chaos_campaign({"retries": 1}, **{CRASH_ENV: "1"})
        assert child.returncode == 0, child.stderr
        assert json.loads(child.stdout) == [[1, "crash", 2]]

    @pytest.mark.skipif(not PROC.is_dir(), reason="needs /proc")
    def test_killed_parent_leaves_no_workers(self, monkeypatch):
        """SIGKILL of a campaign mid-run (a killed shard) must not leave
        its pool workers behind."""
        clean_env(monkeypatch)
        env = child_env(**{HANG_ENV: "0,1,2", HANG_SECONDS_ENV: "60"})
        parent = subprocess.Popen(
            [sys.executable, "-c", CHAOS_CAMPAIGN, "{}"], env=env
        )
        try:
            workers = wait_for(lambda: live_children(parent.pid), 30)
            assert len(workers) == 2
        finally:
            parent.kill()
            parent.wait()
        left = wait_for(
            lambda: not any(is_alive(pid) for pid in workers), 10
        )
        if not left:
            for pid in workers:
                if is_alive(pid):
                    os.kill(pid, signal.SIGKILL)
        assert left, "pool workers outlived their killed parent"


@pytest.mark.skipif(not HAS_SIGALRM, reason="needs SIGALRM")
class TestTimeouts:
    def test_hung_cell_times_out_sequentially(self, monkeypatch):
        clean_env(monkeypatch)
        monkeypatch.setenv(HANG_ENV, "0")
        monkeypatch.setenv(HANG_SECONDS_ENV, "30")
        outcomes = run_cells(
            chaos_tasks([0, 1]), 1, timeout=0.3, quarantine=True
        )
        assert isinstance(outcomes[0], CellFailure)
        assert outcomes[0].kind == "timeout"
        assert not isinstance(outcomes[1], CellFailure)

    def test_hung_cell_times_out_in_worker(self, monkeypatch):
        clean_env(monkeypatch)
        monkeypatch.setenv(HANG_ENV, "1")
        monkeypatch.setenv(HANG_SECONDS_ENV, "30")
        outcomes = run_cells(
            chaos_tasks([0, 1, 2]), 2, timeout=0.5, quarantine=True
        )
        kinds = [
            o.kind if isinstance(o, CellFailure) else "ok" for o in outcomes
        ]
        assert kinds == ["ok", "timeout", "ok"]


class TestErrors:
    def test_raising_cell_is_quarantined_as_error(self, monkeypatch):
        clean_env(monkeypatch)
        monkeypatch.setenv(FLAKY_ENV, "0")  # no CHAOS_DIR: raises every time
        outcomes = run_cells(chaos_tasks([0, 1]), 1, quarantine=True)
        assert isinstance(outcomes[0], CellFailure)
        assert outcomes[0].kind == "error"
        assert "FlakyCellError" in outcomes[0].message
        assert not isinstance(outcomes[1], CellFailure)


class TestSettledCellTelemetry:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_settled_cell_observed_once(self, monkeypatch, workers):
        """A quarantined cell is observed like a completed one, on both
        dispatch branches."""
        clean_env(monkeypatch)
        monkeypatch.setenv(FLAKY_ENV, "3")  # no CHAOS_DIR: raises every time
        outcome = run_campaign(
            chaos_tasks([0, 1, 2, 3]), workers=workers, cell_timeout=30
        )
        assert [f.seed for f in outcome.quarantined] == [3]
        for name in ("campaign.queue.depth", "campaign.cell.seconds"):
            assert outcome.registry.get(name).count == 4, name


class TestCampaignRetry:
    def test_flaky_cell_recovers_on_retry(self, monkeypatch, tmp_path):
        clean_env(monkeypatch)
        monkeypatch.setenv(FLAKY_ENV, "1")
        monkeypatch.setenv(CHAOS_DIR_ENV, str(tmp_path))
        outcome = run_campaign(chaos_tasks([0, 1, 2]), workers=1, retries=1)
        assert not outcome.quarantined
        assert outcome.retried == 1
        assert [r.seed for r in outcome.results] == [0, 1, 2]

    def test_exhausted_retries_quarantine(self, monkeypatch):
        clean_env(monkeypatch)
        monkeypatch.setenv(FLAKY_ENV, "1")  # no CHAOS_DIR: never recovers
        outcome = run_campaign(chaos_tasks([0, 1, 2]), workers=1, retries=1)
        assert len(outcome.quarantined) == 1
        failure = outcome.quarantined[0]
        assert failure.seed == 1
        assert failure.attempts == 2
        assert [r.seed for r in outcome.results] == [0, 2]

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="retries"):
            run_campaign(chaos_tasks([0]), retries=-1)

    def test_quarantine_preserves_surviving_cells(self, monkeypatch):
        """Acceptance: surviving cells are byte-identical to a fault-free
        run of the same grid."""
        clean_env(monkeypatch)
        control = run_campaign(chaos_tasks([0, 1, 2, 3]), workers=1)
        monkeypatch.setenv(FLAKY_ENV, "2")  # never recovers
        chaotic = run_campaign(
            chaos_tasks([0, 1, 2, 3]), workers=1, retries=1
        )
        assert [f.seed for f in chaotic.quarantined] == [2]
        expected = [r for r in control.results if r.seed != 2]
        assert [r.fingerprint() for r in chaotic.results] == [
            r.fingerprint() for r in expected
        ]


class TestCacheCorruption:
    def put_one(self, cache, monkeypatch):
        clean_env(monkeypatch)
        (task,) = chaos_tasks([0])
        key = cell_cache_key(task)
        outcome = run_campaign([task], cache_dir=str(cache.directory))
        assert cache.get(key) is not None
        return key, outcome.results[0]

    def test_truncated_entry_counts_as_corrupt(self, monkeypatch, tmp_path):
        cache = ResultCache(tmp_path)
        key, _ = self.put_one(cache, monkeypatch)
        path = cache.directory / f"{key}.json"
        path.write_text(path.read_text()[:40])  # truncated write
        assert cache.get(key) is None
        assert cache.corrupt_entries == 1

    def test_non_record_entry_counts_as_corrupt(self, monkeypatch, tmp_path):
        cache = ResultCache(tmp_path)
        key, _ = self.put_one(cache, monkeypatch)
        (cache.directory / f"{key}.json").write_text('["not", "a", "dict"]')
        assert cache.get(key) is None
        assert cache.corrupt_entries == 1

    def test_version_mismatch_is_a_plain_miss(self, monkeypatch, tmp_path):
        cache = ResultCache(tmp_path)
        key, _ = self.put_one(cache, monkeypatch)
        path = cache.directory / f"{key}.json"
        record = json.loads(path.read_text())
        record["version"] = CACHE_VERSION - 1
        path.write_text(json.dumps(record))
        assert cache.get(key) is None
        assert cache.corrupt_entries == 0  # deliberate format change

    def test_campaign_surfaces_corruption_count(self, monkeypatch, tmp_path):
        clean_env(monkeypatch)
        tasks = chaos_tasks([0, 1])
        first = run_campaign(tasks, cache_dir=str(tmp_path))
        key = cell_cache_key(tasks[0])
        (tmp_path / f"{key}.json").write_text("{garbage")
        again = run_campaign(tasks, cache_dir=str(tmp_path))
        assert again.cache_corrupt == 1
        assert again.cache_hits == 1  # the intact entry still hit
        assert [r.fingerprint() for r in again.results] == [
            r.fingerprint() for r in first.results
        ]

    def test_corruption_warning_is_logged(self, monkeypatch, tmp_path, caplog):
        cache = ResultCache(tmp_path)
        key, _ = self.put_one(cache, monkeypatch)
        (cache.directory / f"{key}.json").write_text("{garbage")
        with caplog.at_level("WARNING", logger="repro.runner.cache"):
            cache.get(key)
        # The structured event mirrors to stdlib logging, so ad-hoc
        # `--log-level` style configuration still sees corruption.
        assert any(
            "cache.corrupt_entry" in r.message for r in caplog.records
        )
