"""Fleet status: stall/death detection fused from heartbeats + manifests.

ISSUE requirements covered here:

* a fleet whose every shard finished reads ``complete`` and healthy;
* a stale heartbeat flips a shard to ``stalled`` once its age exceeds
  the threshold -- including the acceptance scenario, where a chaos
  ``hang`` cell blocks a live run and ``collect_fleet_status`` flags it
  within one heartbeat interval + threshold;
* a heartbeat whose pid no longer exists reads ``dead``;
* pre-heartbeat shards (PR 6 output) degrade to the manifest
  ``updated_at`` stamp / stream mtime fallback instead of ``unknown``;
* ``campaign status`` exits 0/1/2 on healthy/stalled/empty and
  ``campaign watch`` returns once the fleet completes.
"""

import json
import os
import subprocess
import threading
import time

import pytest

from repro.cli import main
from repro.faults.chaos import scheduled_chaos
from repro.graphs import ring
from repro.runner.cells import CellSpec, CellTask
from repro.runner.heartbeat import heartbeat_path, read_heartbeat
from repro.runner.merge import MergeError
from repro.runner.status import (
    DEFAULT_STALL_AFTER,
    STATE_COMPLETE,
    STATE_DEAD,
    STATE_RUNNING,
    STATE_STALLED,
    STATE_UNKNOWN,
    collect_fleet_status,
    fleet_status_lines,
    shard_status,
)
from repro.workloads import Campaign, bounded_uniform, run_campaign


def bounded_builder(topology, seed):
    return bounded_uniform(topology, lb=1.0, ub=3.0, seed=seed)


def run_shard(directory, shard=None, seeds=range(3)):
    campaign = Campaign(seeds=seeds)
    campaign.add("bounded", bounded_builder)
    return campaign.run_results(
        [ring(4)], shard=shard, results_dir=directory,
        heartbeat_interval=0.0,
    )


def doctor_heartbeat(directory, shard=None, **overrides):
    """Rewrite the heartbeat sidecar with altered fields."""
    path = heartbeat_path(directory, shard)
    record = json.loads(path.read_text())
    record.update(overrides)
    path.write_text(json.dumps(record))
    return path


def doctor_manifest(path, **overrides):
    manifest = json.loads(path.read_text())
    manifest.update(overrides)
    path.write_text(json.dumps(manifest))
    return manifest


class TestShardStatus:
    def test_complete_shard(self, tmp_path):
        run_shard(tmp_path)
        status = shard_status(tmp_path / "manifest-1-of-1.json")
        assert status.state == STATE_COMPLETE
        assert status.healthy
        assert status.source == "heartbeat"
        assert status.cells_completed == 3
        assert status.cells_own == 3
        assert status.cells_remaining == 0

    def test_stale_heartbeat_is_stalled(self, tmp_path):
        run_shard(tmp_path)
        doctor_heartbeat(
            tmp_path,
            complete=False,
            updated_at=time.time() - 100.0,
            monotonic=time.monotonic() - 100.0,
        )
        doctor_manifest(tmp_path / "manifest-1-of-1.json", complete=False)
        status = shard_status(
            tmp_path / "manifest-1-of-1.json", stall_after=30.0
        )
        assert status.state == STATE_STALLED
        assert not status.healthy
        assert status.age_seconds == pytest.approx(100.0, abs=5.0)

    def test_fresh_incomplete_heartbeat_is_running(self, tmp_path):
        run_shard(tmp_path)
        doctor_heartbeat(
            tmp_path,
            complete=False,
            updated_at=time.time(),
            monotonic=time.monotonic(),
        )
        doctor_manifest(tmp_path / "manifest-1-of-1.json", complete=False)
        status = shard_status(tmp_path / "manifest-1-of-1.json")
        assert status.state == STATE_RUNNING
        assert status.healthy

    def test_dead_pid_is_dead_even_when_fresh(self, tmp_path):
        run_shard(tmp_path)
        proc = subprocess.Popen(["true"])
        proc.wait()  # reaped: the pid no longer exists
        doctor_heartbeat(
            tmp_path,
            complete=False,
            pid=proc.pid,
            updated_at=time.time(),
            monotonic=time.monotonic(),
        )
        doctor_manifest(tmp_path / "manifest-1-of-1.json", complete=False)
        status = shard_status(tmp_path / "manifest-1-of-1.json")
        assert status.state == STATE_DEAD
        assert not status.healthy

    def test_foreign_host_pid_is_not_probed(self, tmp_path):
        """A pid on another machine is unknowable: the age ladder rules."""
        run_shard(tmp_path)
        doctor_heartbeat(
            tmp_path,
            complete=False,
            host="some-other-machine",
            pid=1,
            updated_at=time.time(),
            monotonic=time.monotonic(),
        )
        doctor_manifest(tmp_path / "manifest-1-of-1.json", complete=False)
        status = shard_status(tmp_path / "manifest-1-of-1.json")
        assert status.state == STATE_RUNNING

    def test_unreadable_manifest_is_unknown(self, tmp_path):
        path = tmp_path / "manifest-1-of-1.json"
        path.write_text("{torn")
        status = shard_status(path)
        assert status.state == STATE_UNKNOWN
        assert not status.healthy
        assert status.source == "none"

    def test_wrong_shard_heartbeat_ignored(self, tmp_path):
        """A sidecar from a different shard layout must not lie for us."""
        run_shard(tmp_path)
        record = json.loads(heartbeat_path(tmp_path).read_text())
        record["shard"] = [2, 4]
        heartbeat_path(tmp_path).write_text(json.dumps(record))
        status = shard_status(tmp_path / "manifest-1-of-1.json")
        assert status.source in ("manifest", "stream")
        assert status.state == STATE_COMPLETE  # manifest says so


class TestManifestFallback:
    """Pre-PR-7 shards: no heartbeat sidecar at all."""

    def test_complete_without_heartbeat(self, tmp_path):
        run_shard(tmp_path)
        heartbeat_path(tmp_path).unlink()
        status = shard_status(tmp_path / "manifest-1-of-1.json")
        assert status.state == STATE_COMPLETE
        assert status.source in ("manifest", "stream")
        assert status.cells_completed == 3  # counted from manifest markers

    def test_old_evidence_without_heartbeat_is_stalled(self, tmp_path):
        run_shard(tmp_path)
        heartbeat_path(tmp_path).unlink()
        manifest_path = tmp_path / "manifest-1-of-1.json"
        manifest = doctor_manifest(
            manifest_path, complete=False, updated_at=time.time() - 300.0
        )
        stream = tmp_path / manifest["data"]
        old = time.time() - 300.0
        os.utime(stream, (old, old))
        status = shard_status(manifest_path, stall_after=30.0)
        assert status.state == STATE_STALLED
        assert status.source in ("manifest", "stream")
        assert status.age_seconds == pytest.approx(300.0, abs=10.0)

    def test_fresh_stream_mtime_counts_as_life(self, tmp_path):
        run_shard(tmp_path)
        heartbeat_path(tmp_path).unlink()
        manifest_path = tmp_path / "manifest-1-of-1.json"
        manifest = doctor_manifest(
            manifest_path, complete=False, updated_at=time.time() - 300.0
        )
        os.utime(tmp_path / manifest["data"])  # a cell just streamed
        status = shard_status(manifest_path, stall_after=30.0)
        assert status.state == STATE_RUNNING
        assert status.source == "stream"


class TestFleetStatus:
    def test_two_shard_fleet_complete(self, tmp_path):
        run_shard(tmp_path, shard="1/2", seeds=range(4))
        run_shard(tmp_path, shard="2/2", seeds=range(4))
        fleet = collect_fleet_status([tmp_path])
        assert fleet.complete
        assert fleet.healthy
        assert len(fleet.shards) == 2
        assert fleet.cells_completed == 4
        assert fleet.gap_cells == 0
        assert fleet.to_json()["type"] == "campaign.fleet.status"
        assert fleet.health_json()["status"] == "complete"

    def test_missing_shard_shows_gap_cells(self, tmp_path):
        outcome = run_shard(tmp_path, shard="1/2", seeds=range(4))
        fleet = collect_fleet_status([tmp_path])
        # Shard 2/2 never ran: its hash-assigned cells are unowned.
        assert fleet.gap_cells == 4 - len(outcome.results)
        assert fleet.gap_cells > 0

    def test_no_manifests_raises(self, tmp_path):
        with pytest.raises(MergeError):
            collect_fleet_status([tmp_path])

    def test_attention_rendered_in_lines(self, tmp_path):
        run_shard(tmp_path)
        doctor_heartbeat(
            tmp_path,
            complete=False,
            updated_at=time.time() - 100.0,
            monotonic=time.monotonic() - 100.0,
        )
        doctor_manifest(tmp_path / "manifest-1-of-1.json", complete=False)
        fleet = collect_fleet_status([tmp_path], stall_after=30.0)
        assert not fleet.healthy
        assert fleet.health_json()["status"] == "degraded"
        rendered = "\n".join(fleet_status_lines(fleet))
        assert "ATTENTION" in rendered
        assert "stalled" in rendered

    def test_default_stall_threshold(self):
        assert DEFAULT_STALL_AFTER == 30.0


class TestHangDetection:
    """Acceptance: a chaos hang cell stalls the shard detectably."""

    def test_hung_cell_flags_shard_as_stalled(self, tmp_path):
        from repro.faults.chaos import chaos_bounded_builder

        tasks = [
            CellTask(
                spec=CellSpec(
                    builder="chaos-bounded", topology=ring(4), seed=seed
                ),
                build=chaos_bounded_builder,
            )
            for seed in range(3)
        ]
        with scheduled_chaos(hang={1}, hang_seconds=3.0):
            thread = threading.Thread(
                target=run_campaign,
                args=(tasks,),
                kwargs=dict(
                    workers=1,
                    results_dir=str(tmp_path),
                    heartbeat_interval=0.05,
                ),
                daemon=True,
            )
            thread.start()
            # Detection contract: one heartbeat interval (0.05 s) + the
            # stall threshold (0.5 s) after the hang starts, the shard
            # must read stalled.  Poll well past that but far below the
            # 3 s hang, so a pass genuinely means early detection.
            state = None
            deadline = time.monotonic() + 2.5
            while time.monotonic() < deadline:
                try:
                    fleet = collect_fleet_status([tmp_path], stall_after=0.5)
                except MergeError:
                    time.sleep(0.05)
                    continue
                state = fleet.shards[0].state
                if state == STATE_STALLED:
                    assert not fleet.healthy
                    break
                time.sleep(0.05)
            assert state == STATE_STALLED
            thread.join(timeout=20.0)
        assert not thread.is_alive()
        # Once the hang releases, the same evidence reads complete.
        fleet = collect_fleet_status([tmp_path], stall_after=0.5)
        assert fleet.complete
        assert read_heartbeat(heartbeat_path(tmp_path)).complete


class TestStatusCli:
    def test_status_healthy_exit_zero(self, tmp_path, capsys):
        run_shard(tmp_path)
        assert main(["campaign", "status", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "complete" in out

    def test_status_json_output(self, tmp_path, capsys):
        run_shard(tmp_path)
        assert main(["campaign", "status", str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["type"] == "campaign.fleet.status"
        assert payload["healthy"] is True

    def test_status_stalled_exit_one(self, tmp_path):
        run_shard(tmp_path)
        doctor_heartbeat(
            tmp_path,
            complete=False,
            updated_at=time.time() - 100.0,
            monotonic=time.monotonic() - 100.0,
        )
        doctor_manifest(tmp_path / "manifest-1-of-1.json", complete=False)
        assert main(
            ["campaign", "status", str(tmp_path), "--stall-after", "30"]
        ) == 1

    def test_status_empty_dir_exit_two(self, tmp_path):
        assert main(["campaign", "status", str(tmp_path)]) == 2

    def test_status_needs_sources(self):
        assert main(["campaign", "status"]) == 2

    def test_watch_returns_on_complete_fleet(self, tmp_path, capsys):
        run_shard(tmp_path)
        assert main(
            ["campaign", "watch", str(tmp_path), "--interval", "0.05"]
        ) == 0
        assert "complete" in capsys.readouterr().out

    def test_watch_interrupted_before_first_snapshot(
        self, tmp_path, monkeypatch
    ):
        import repro.runner.status as status_module

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(
            status_module, "collect_fleet_status", interrupted
        )
        # No snapshot was taken, so the fleet's health is unknown.
        assert main(["campaign", "watch", str(tmp_path)]) == 1

    def test_run_rejects_sources(self, tmp_path):
        assert main(["campaign", "run", str(tmp_path)]) == 2


class TestFleetHealthProvider:
    """fleet_health(): the status module as a reusable health source."""

    def test_none_results_dir_is_running(self):
        from repro.runner.status import fleet_health

        assert fleet_health(None)() == {
            "status": "running", "healthy": True,
        }

    def test_empty_dir_is_starting_not_an_error(self, tmp_path):
        from repro.runner.status import fleet_health

        payload = fleet_health(tmp_path)()
        assert payload["status"] == "starting"
        assert payload["healthy"] is True

    def test_completed_fleet_reports_health_json(self, tmp_path):
        from repro.runner.status import fleet_health

        run_shard(tmp_path)
        payload = fleet_health(tmp_path)()
        assert payload == collect_fleet_status([tmp_path]).health_json()
        assert payload["healthy"] is True

    def test_accepted_by_serve_telemetry(self, tmp_path):
        import urllib.request

        from repro.obs.http import serve_telemetry
        from repro.runner.status import fleet_health

        run_shard(tmp_path)
        with serve_telemetry(health=fleet_health(tmp_path)) as server:
            with urllib.request.urlopen(
                server.url + "/healthz", timeout=5
            ) as response:
                payload = json.loads(response.read())
        assert payload["healthy"] is True
