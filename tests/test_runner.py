"""Tests for the runner layer: cells, sharding, cache, executor, shims."""

import math
import pickle
import warnings

import pytest

from repro.graphs import line, ring
from repro.obs.metrics import MetricsRegistry, registry_from_snapshot
from repro.runner import (
    CellFailure,
    CellResult,
    CellSpec,
    CellTask,
    ResultCache,
    cell_cache_key,
    execute_cell,
    execute_cells,
    filter_shard,
    in_shard,
    parse_shard,
    resolve_workers,
    set_default_workers,
    shard_index,
    validate_cell_results_file,
    write_cell_results_jsonl,
)
from repro.runner.executor import WORKERS_ENV, default_workers
from repro.workloads import bounded_uniform, round_trip_bias


def bounded_builder(topology, seed):
    return bounded_uniform(topology, lb=1.0, ub=3.0, seed=seed)


def bias_builder(topology, seed):
    return round_trip_bias(topology, bias=0.5, seed=seed)


def make_task(topology=None, seed=0, name="bounded", **kwargs):
    return CellTask(
        spec=CellSpec(
            builder=name, topology=topology or ring(4), seed=seed
        ),
        build=bounded_builder,
        **kwargs,
    )


class TestCellSpec:
    def test_scenario_key_and_identity(self):
        spec = CellSpec(builder="b", topology=ring(4), seed=3)
        assert spec.scenario_key == "b:ring-4"
        assert spec.key == ("b", "ring-4", 3)


class TestExecuteCell:
    def test_produces_sound_certified_result(self):
        outcome = execute_cell(make_task())
        result = outcome.result
        assert result.scenario == "bounded"
        assert result.topology == "ring-4"
        assert result.seed == 0
        assert math.isfinite(result.precision)
        assert result.sound
        assert result.realized <= result.precision + 1e-9
        # optimal pipeline: rho_bar == A^max
        assert result.rho_bar == pytest.approx(result.precision)
        assert result.timings  # engine stage seconds were collected
        assert not result.cache_hit

    def test_metrics_snapshot_is_picklable_and_rebuildable(self):
        outcome = execute_cell(make_task())
        snapshot = pickle.loads(pickle.dumps(outcome.metrics))
        registry = registry_from_snapshot(snapshot)
        names = set(registry.names())
        assert any(n.startswith("sim.") for n in names)
        assert any(n.startswith("pipeline.") for n in names)


class TestCellResultSerialization:
    def test_json_roundtrip(self):
        result = execute_cell(make_task()).result
        clone = CellResult.from_json(result.to_json())
        assert clone.fingerprint() == result.fingerprint()
        assert clone.timings == result.timings

    def test_infinite_precision_roundtrips(self):
        result = CellResult(
            scenario="s", topology="t", seed=0, precision=math.inf,
            rho_bar=math.inf, realized=1.0, sound=True, backend="python",
            seconds=0.1,
        )
        clone = CellResult.from_json(result.to_json())
        assert math.isinf(clone.precision)

    def test_rejects_foreign_records(self):
        with pytest.raises(ValueError, match="campaign.cell"):
            CellResult.from_json({"type": "metrics.counter"})

    def test_jsonl_file_roundtrip(self, tmp_path):
        results = [execute_cell(make_task(seed=s)).result for s in (0, 1)]
        path = write_cell_results_jsonl(tmp_path / "cells.jsonl", results)
        assert validate_cell_results_file(path) == 2

    def test_jsonl_validation_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "campaign.cell"}\n')
        with pytest.raises(ValueError, match="invalid cell record"):
            validate_cell_results_file(path)


class TestSharding:
    def test_parse_shard(self):
        assert parse_shard("1/4") == (1, 4)
        assert parse_shard("4/4") == (4, 4)

    @pytest.mark.parametrize(
        "spec", ["0/4", "5/4", "1/0", "x/4", "1", "1/4/2", ""]
    )
    def test_parse_shard_rejects(self, spec):
        with pytest.raises(ValueError):
            parse_shard(spec)

    def test_shards_partition_the_grid(self):
        specs = [
            CellSpec(builder=name, topology=topo, seed=seed)
            for name in ("a", "b", "c")
            for topo in (ring(4), line(5))
            for seed in range(5)
        ]
        count = 4
        owners = [shard_index(s, count) for s in specs]
        assert set(owners) <= set(range(count))
        # each spec lives in exactly one shard
        for spec in specs:
            assert sum(
                in_shard(spec, (i, count)) for i in range(1, count + 1)
            ) == 1
        # filter_shard unions back to the full grid, order preserved
        union = []
        for i in range(1, count + 1):
            union.extend(filter_shard(specs, (i, count)))
        assert sorted(s.key for s in union) == sorted(s.key for s in specs)

    def test_assignment_is_stable_across_processes(self):
        # hashlib-based, not hash(): the mapping must not depend on
        # PYTHONHASHSEED, or shards run on different machines overlap.
        spec = CellSpec(builder="bounded", topology=ring(4), seed=1)
        assert shard_index(spec, 4) == shard_index(spec, 4)
        assert in_shard(spec, (shard_index(spec, 4) + 1, 4))

    def test_seed_changes_shard_sometimes(self):
        specs = [
            CellSpec(builder="bounded", topology=ring(4), seed=s)
            for s in range(20)
        ]
        owners = {shard_index(s, 4) for s in specs}
        assert len(owners) > 1  # not all in one shard


class TestResultCache:
    def test_key_is_deterministic_and_seed_sensitive(self):
        key_a = cell_cache_key(make_task(seed=0))
        key_b = cell_cache_key(make_task(seed=0))
        key_c = cell_cache_key(make_task(seed=1))
        assert key_a == key_b
        assert key_a != key_c

    def test_key_sensitive_to_options_and_topology(self):
        base = cell_cache_key(make_task())
        assert base != cell_cache_key(make_task(certify=False))
        assert base != cell_cache_key(make_task(topology=ring(5)))

    def test_key_sensitive_to_sampler_not_builder_name(self):
        # The key is content-addressed: what the scenario *is*, not what
        # the campaign called it.
        renamed = CellTask(
            spec=CellSpec(builder="other-name", topology=ring(4), seed=0),
            build=bounded_builder,
        )
        other_model = CellTask(
            spec=CellSpec(builder="bounded", topology=ring(4), seed=0),
            build=bias_builder,
        )
        base = cell_cache_key(make_task())
        assert cell_cache_key(renamed) != base  # scenario name differs
        assert cell_cache_key(other_model) != base

    def test_roundtrip_marks_cache_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        task = make_task()
        key = cell_cache_key(task)
        assert cache.get(key) is None
        result = execute_cell(task).result
        cache.put(key, result)
        assert len(cache) == 1
        restored = cache.get(key)
        assert restored is not None
        assert restored.cache_hit
        assert restored.fingerprint() == result.fingerprint()

    def test_corrupt_entries_are_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        task = make_task()
        key = cell_cache_key(task)
        cache.put(key, execute_cell(task).result)
        for entry in tmp_path.glob("*.json"):
            entry.write_text("{not json")
        assert cache.get(key) is None

    def test_max_entries_validated(self, tmp_path):
        with pytest.raises(ValueError, match="max_entries"):
            ResultCache(tmp_path, max_entries=0)
        assert ResultCache(tmp_path, max_entries=5).max_entries == 5
        assert ResultCache(tmp_path).max_entries is None

    def test_lru_eviction_is_by_use_not_insertion(self, tmp_path):
        import os as _os

        cache = ResultCache(tmp_path, max_entries=2)
        tasks = [make_task(seed=s) for s in range(3)]
        keys = [cell_cache_key(t) for t in tasks]
        results = [execute_cell(t).result for t in tasks[:2]]
        cache.put(keys[0], results[0])
        cache.put(keys[1], results[1])
        # Pin distinct mtimes, oldest first, then *use* entry 0: the hit
        # must refresh its recency so entry 1 becomes the LRU victim.
        for age, key in ((100, keys[0]), (200, keys[1])):
            _os.utime(tmp_path / f"{key}.json", (age, age))
        assert cache.get(keys[0]) is not None
        cache.put(keys[2], execute_cell(tasks[2]).result)
        assert len(cache) == 2
        assert cache.evicted_entries == 1
        assert cache.get(keys[1]) is None  # evicted: least recently used
        assert cache.get(keys[0]) is not None
        assert cache.get(keys[2]) is not None

    def test_unbounded_cache_never_evicts(self, tmp_path):
        cache = ResultCache(tmp_path)
        for seed in range(3):
            task = make_task(seed=seed)
            cache.put(cell_cache_key(task), execute_cell(task).result)
        assert len(cache) == 3
        assert cache.evicted_entries == 0


def in_input_order(stream):
    """Outcomes of an ``execute_cells`` stream, back in input order."""
    return [outcome for _, outcome in sorted(stream, key=lambda p: p[0])]


class TestExecutors:
    def test_sequential_preserves_order(self):
        tasks = [make_task(seed=s) for s in range(3)]
        registry = MetricsRegistry()
        stream = list(execute_cells(tasks, 1, registry=registry))
        assert [index for index, _ in stream] == [0, 1, 2]
        assert [o.result.seed for _, o in stream] == [0, 1, 2]
        depth = registry.get("campaign.queue.depth")
        assert depth is not None and depth.count == 3

    def test_process_pool_matches_sequential(self):
        tasks = [make_task(seed=s) for s in range(4)]
        sequential = in_input_order(execute_cells(tasks, 1))
        pooled = in_input_order(execute_cells(tasks, 2))
        assert [o.result.fingerprint() for o in pooled] == [
            o.result.fingerprint() for o in sequential
        ]

    def test_resolve_workers_precedence(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers() == 1
        assert resolve_workers(3) == 3
        monkeypatch.setenv(WORKERS_ENV, "2")
        assert resolve_workers() == 2
        assert resolve_workers(5) == 5  # explicit beats env
        with default_workers(4):
            assert resolve_workers() == 4  # default beats env
            assert resolve_workers(6) == 6  # explicit beats default
        assert resolve_workers() == 2  # context restored

    def test_resolve_workers_rejects_bad_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "lots")
        with pytest.raises(ValueError, match=WORKERS_ENV):
            resolve_workers()

    def test_set_default_workers_returns_previous(self):
        assert set_default_workers(3) is None
        try:
            assert set_default_workers(None) == 3
        finally:
            set_default_workers(None)


def raising_builder(topology, seed):
    raise RuntimeError(f"cell (seed={seed}) is broken")


class TestQuarantinePolicy:
    """One policy on both dispatch branches: without quarantine the
    cell's own exception propagates; with it the cell degrades to a
    typed ``error`` failure and the others complete."""

    def broken_batch(self):
        broken = CellTask(
            spec=CellSpec(builder="broken", topology=ring(4), seed=7),
            build=raising_builder,
        )
        return [make_task(seed=0), broken, make_task(seed=1)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_plain_run_propagates_cell_error(self, workers):
        with pytest.raises(RuntimeError, match="is broken"):
            list(execute_cells(self.broken_batch(), workers))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_quarantine_degrades_to_failure(self, workers):
        outcomes = in_input_order(
            execute_cells(self.broken_batch(), workers, quarantine=True)
        )
        assert [o.result.seed for o in (outcomes[0], outcomes[2])] == [0, 1]
        failure = outcomes[1]
        assert isinstance(failure, CellFailure)
        assert failure.kind == "error"
        assert failure.key == ("broken", "ring-4", 7)
        assert "is broken" in failure.message

    def test_empty_batch_yields_nothing(self):
        assert list(execute_cells([], 2)) == []


class TestKeywordOnlyEnforced:
    """The one-release positional shims are gone (DESIGN.md section 9):
    option arguments are now genuinely keyword-only."""

    def test_campaign_positional_seeds_raise(self):
        from repro.workloads import Campaign

        with pytest.raises(TypeError):
            Campaign(range(2))

    def test_synchronizer_positional_root_raises(self):
        from repro.core.synchronizer import ClockSynchronizer

        scenario = bounded_builder(ring(4), 0)
        root = next(iter(scenario.system.processors))
        with pytest.raises(TypeError):
            ClockSynchronizer(scenario.system, root)

    def test_from_matrices_positional_raises(self):
        from repro.core.synchronizer import ClockSynchronizer

        scenario = bounded_builder(ring(4), 0)
        alpha = scenario.run()
        sync = ClockSynchronizer(scenario.system)
        from repro.core.estimates import local_shift_estimates

        mls = local_shift_estimates(scenario.system, alpha.views())
        mls_matrix = sync.index.matrix(mls)
        ms_matrix = sync.engine.global_estimates(mls_matrix)
        with pytest.raises(TypeError):
            sync.from_matrices(mls, mls_matrix, ms_matrix)
        result = sync.from_matrices(
            mls, mls_matrix=mls_matrix, ms_matrix=ms_matrix
        )
        assert result.precision == pytest.approx(
            sync.from_execution(alpha).precision
        )

    def test_keyword_calls_do_not_warn(self):
        from repro.workloads import Campaign

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            Campaign(seeds=range(2), certify=False)

    def test_shim_module_is_gone(self):
        with pytest.raises(ImportError):
            import repro._compat  # noqa: F401
