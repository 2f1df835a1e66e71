"""Integration tests for the experiment suite (repro.experiments).

Each experiment runs in quick mode and must (a) produce non-empty tables
and (b) exhibit the qualitative shape its claim predicts -- the same
"who wins, where the crossover falls" checks EXPERIMENTS.md records.
"""

import math

import pytest

from repro.experiments import DESCRIPTIONS, REGISTRY, run_experiment


class TestRegistry:
    def test_experiments_registered(self):
        # E16 is the live-service evaluation (EXPERIMENTS.md), not a
        # registry entry -- it runs on sockets, not the simulator.
        assert len(REGISTRY) == 16
        assert set(REGISTRY) == {f"E{i}" for i in range(1, 16)} | {"E17"}
        assert set(DESCRIPTIONS) == set(REGISTRY)

    def test_unknown_id_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("E99")

    def test_case_insensitive(self):
        tables = run_experiment("e2", quick=True)
        assert tables


@pytest.mark.parametrize("experiment_id", sorted(REGISTRY))
def test_experiment_runs_and_produces_rows(experiment_id):
    tables = run_experiment(experiment_id, quick=True)
    assert tables, experiment_id
    for table in tables:
        assert table.rows, f"{experiment_id}: empty table {table.title!r}"
        text = table.format()
        assert table.title in text


class TestExperimentShapes:
    def test_e1_everything_certified(self):
        (table,) = run_experiment("E1", quick=True)
        certified_column = [row[-1] for row in table.rows]
        assert all(certified_column)
        # Adversary ratio approaches 1 on every topology.
        assert all(row[-2] > 0.99 for row in table.rows)

    def test_e2_formulas_match_search(self):
        (table,) = run_experiment("E2", quick=True)
        assert all(row[-1] for row in table.rows)

    def test_e3_finite_per_execution_and_components(self):
        tail_table, component_table = run_experiment("E3", quick=True)
        assert all(row[-2] for row in tail_table.rows)  # all finite
        one_way = component_table.rows[0]
        bidirectional = component_table.rows[1]
        assert math.isinf(one_way[1])
        assert not math.isinf(bidirectional[1])

    def test_e4_bias_wins_when_tight_bounds_win_when_loose(self):
        (table,) = run_experiment("E4", quick=True)
        winners = {row[0]: row[-1] for row in table.rows}
        assert winners[min(winners)] == "bias"
        assert winners[max(winners)] == "bounds"
        # Composite never loses.
        for row in table.rows:
            assert row[3] <= min(row[1], row[2]) + 1e-9

    def test_e5_decomposition_matches(self):
        link_table, system_table = run_experiment("E5", quick=True)
        assert all(row[-1] for row in link_table.rows)
        assert all(row[-1] for row in system_table.rows)

    def test_e6_lp_agrees_everywhere(self):
        (table,) = run_experiment("E6", quick=True)
        for row in table.rows:
            assert abs(row[1] - row[2]) < 1e-6  # Karp == LP
            assert row[3] < 1e-6  # ms~ gap
            assert row[4]

    def test_e7_optimal_never_loses(self):
        table, favourable = run_experiment("E7", quick=True)
        for row in table.rows:
            assert row[4] >= 1.0 - 1e-9  # ntp/opt
            assert row[5] >= 1.0 - 1e-9  # cristian/opt
        (row,) = favourable.rows
        assert row[-1] > 1.0  # instances genuinely vary

    def test_e8_precision_monotone_in_probes(self):
        (table,) = run_experiment("E8", quick=True)
        assert all(row[-1] for row in table.rows)
        means = [row[1] for row in table.rows]
        assert means[0] >= means[-1]

    def test_e9_reports_timings(self):
        stages, engines = run_experiment("E9", quick=True)
        for row in stages.rows:
            assert row[-1] > 0  # total time positive
        for row in engines.rows:
            assert all(cell > 0 for cell in row[1:])  # times and speedup

    def test_e10_distribution_never_beats_full_information(self):
        leader_table, drift_table, reliable_table = run_experiment(
            "E10", quick=True
        )
        for row in leader_table.rows:
            protocol_rho, probe_opt, full_opt = row[1], row[2], row[3]
            assert full_opt <= protocol_rho + 1e-9
            assert row[4]
        assert drift_table.rows
        for row in reliable_table.rows:
            reliable_done, total = row[2].split("/")
            assert reliable_done == total  # reliable always completes
            if row[3] != "-":
                sound, done = row[3].split("/")
                assert sound == done

    def test_e11_windowed_reductions(self):
        equivalence, sweep = run_experiment("E11", quick=True)
        assert all(row[-1] for row in equivalence.rows)
        from repro._types import INF

        inf_row = next(row for row in sweep.rows if row[0] == INF)
        flagged, runs = inf_row[-1].split("/")
        assert flagged == runs  # unsound all-pairs model always caught
        sound_rows = [row for row in sweep.rows if row[1] is True]
        precisions = [row[2] for row in sound_rows]
        assert precisions == sorted(precisions, reverse=True)

    def test_e12_guarantee_conditional_success(self):
        tradeoff, coverage = run_experiment("E12", quick=True)
        assert tradeoff.rows
        for row in coverage.rows:
            ok, held = row[-1].split("/")
            assert ok == held

    def test_e14_monitored_convergence(self):
        trajectory, summary = run_experiment("E14", quick=True)
        # Zero monitor violations on every seed.
        assert all(row[-1] == 0 for row in summary.rows)
        assert all(row[2] > 0 for row in summary.rows)  # refreshes checked
        finite = [
            float(row[2]) for row in trajectory.rows if row[2] != "inf"
        ]
        assert finite == sorted(finite, reverse=True)  # precision tightens

    def test_e15_loss_degrades_but_never_violates(self):
        (table,) = run_experiment("E15", quick=True)
        assert all(row[-1] == 0 for row in table.rows)  # no violations
        baseline, lossy = table.rows[0], table.rows[-1]
        assert float(baseline[2]) == 0.0  # fault-free run drops nothing
        assert float(lossy[2]) > 0.0  # lossy run actually dropped traffic

    def test_e17_emergent_delays_monitor_clean(self):
        models, bias = run_experiment("E17", quick=True)
        # Strict monitors passed for every loss rate and every model.
        assert all(row[-1] == "pass (strict)" for row in models.rows)
        zero_loss, lossy = models.rows[0], models.rows[-1]
        # At zero loss the transport is invisible: no retransmissions,
        # emergent delays inside the frame bounds.
        assert float(zero_loss[1]) == 0.0
        assert float(zero_loss[2]) <= 2.0
        # Loss forces retransmissions; delays escape the frame bounds
        # (that is what makes them emergent).
        assert float(lossy[1]) > 0.0
        assert float(lossy[2]) > 2.0
        # The a-priori bias bound must cover the worst schedule, so it
        # never beats the absolute bounds; the measured-b oracle does
        # at zero loss.
        assert all(float(row[5]) >= float(row[3]) for row in models.rows)
        assert float(bias.rows[0][-1]) < 1.0

    def test_e13_detection_threshold(self):
        detection, repair = run_experiment("E13", quick=True)
        for row in detection.rows:
            detected, runs = row[2].split("/")
            if row[1]:  # detectable severity
                assert detected == runs
            else:  # sub-threshold: must not cry wolf
                assert detected == "0"
        assert all(row[-1] for row in repair.rows)
