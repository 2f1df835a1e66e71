"""Chaos acceptance suite (ISSUE 5): injected faults vs the whole stack.

Two contracts, end to end:

* **True positives**: the theorem monitors flag a run whose injected
  faults actually break the delay assumptions (timestamp corruption) --
  either as recorded violations or as the pipeline rejecting the views
  as inconsistent.
* **Zero false positives**: faults that merely remove information
  (message loss, link down, processor crash, duplicate delivery) never
  produce a single monitor violation -- precision degrades, correctness
  does not.

Plus the campaign-level acceptance: a sweep with injected crash + hang
+ flaky cells completes with exactly those cells quarantined and every
other cell byte-identical to the fault-free run.
"""

import signal

import pytest

from repro.core.errors import InconsistentViewsError
from repro.core.synchronizer import ClockSynchronizer
from repro.faults.chaos import (
    CHAOS_DIR_ENV,
    CRASH_ENV,
    FLAKY_ENV,
    HANG_ENV,
    HANG_SECONDS_ENV,
    chaos_bounded_builder,
    with_fault_plan,
)
from repro.faults.plan import (
    DuplicateDelivery,
    FaultPlan,
    LinkDown,
    MessageLoss,
    ProcessorCrash,
    TimestampCorruption,
)
from repro.graphs.topology import ring
from repro.obs.monitor import MonitorSuite
from repro.runner.cells import CellSpec, CellTask
from repro.workloads.parallel import run_campaign
from repro.workloads.scenarios import bounded_uniform

BENIGN_PLANS = {
    "loss": FaultPlan(faults=(MessageLoss(rate=0.3),), seed=5),
    "link-down": FaultPlan(
        faults=(LinkDown(edge=(0, 1), start=0.0, end=15.0),), seed=5
    ),
    "crash": FaultPlan(
        faults=(ProcessorCrash(processor=2, at=12.0, restart=22.0),), seed=5
    ),
    "duplicates": FaultPlan(faults=(DuplicateDelivery(rate=0.5),), seed=5),
}


def run_monitored(plan, seed=0):
    """Simulate under ``plan`` and run the final-result monitor checks.

    Returns (suite, rejected): ``rejected`` is True when the pipeline
    refused the views as inconsistent (itself a detection).
    """
    scenario = bounded_uniform(
        ring(5), lb=1.0, ub=3.0, probes=3, spacing=2.0, seed=seed
    )
    if plan is not None:
        scenario = scenario.with_faults(plan)
    alpha = scenario.run()
    suite = MonitorSuite(execution=alpha)
    try:
        result = ClockSynchronizer(scenario.system).from_execution(alpha)
    except InconsistentViewsError:
        return suite, True
    suite.check_final(scenario.system, result, alpha)
    return suite, False


class TestNoFalsePositives:
    def test_fault_free_run_is_clean(self):
        suite, rejected = run_monitored(None)
        assert not rejected
        assert suite.ok
        assert suite.checks > 0

    @pytest.mark.parametrize("name", sorted(BENIGN_PLANS))
    def test_information_losing_faults_never_flag(self, name):
        for seed in (0, 1, 2):
            suite, rejected = run_monitored(BENIGN_PLANS[name], seed=seed)
            assert not rejected, f"{name} seed {seed}: views rejected"
            assert suite.ok, (
                f"{name} seed {seed}: false positives "
                f"{[v.message for v in suite.violations]}"
            )


class TestTruePositives:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_corruption_is_always_detected(self, seed):
        plan = FaultPlan(
            faults=(TimestampCorruption(offset=-2.5, edge=(0, 1)),),
            seed=seed,
        )
        suite, rejected = run_monitored(plan, seed=seed)
        assert rejected or suite.violations, (
            "corrupted timestamps were neither rejected as inconsistent "
            "nor flagged by any monitor"
        )

    def test_corruption_marks_run_inadmissible(self):
        plan = FaultPlan(
            faults=(TimestampCorruption(offset=-2.5, edge=(0, 1)),), seed=0
        )
        scenario = bounded_uniform(
            ring(5), lb=1.0, ub=3.0, probes=3, seed=0
        ).with_faults(plan)
        scenario.run()
        assert scenario.last_run_summary.inadmissible


def chaos_tasks(seeds):
    return [
        CellTask(
            spec=CellSpec(
                builder="chaos-bounded", topology=ring(4), seed=seed
            ),
            build=chaos_bounded_builder,
            certify=True,
        )
        for seed in seeds
    ]


@pytest.mark.skipif(
    not hasattr(signal, "SIGALRM"), reason="needs SIGALRM for timeouts"
)
class TestCampaignAcceptance:
    def test_crash_hang_flaky_quarantined_rest_identical(
        self, monkeypatch, tmp_path
    ):
        """The headline acceptance test: a campaign with an injected
        per-cell crash and timeout completes, with those cells
        quarantined and all other cells byte-identical to the
        fault-free run."""
        for name in (CRASH_ENV, HANG_ENV, HANG_SECONDS_ENV, FLAKY_ENV,
                     CHAOS_DIR_ENV):
            monkeypatch.delenv(name, raising=False)
        seeds = [0, 1, 2, 3, 4, 5]
        control = run_campaign(chaos_tasks(seeds), workers=2)

        monkeypatch.setenv(CRASH_ENV, "2")
        monkeypatch.setenv(HANG_ENV, "4")
        monkeypatch.setenv(HANG_SECONDS_ENV, "30")
        monkeypatch.setenv(FLAKY_ENV, "1")
        monkeypatch.setenv(CHAOS_DIR_ENV, str(tmp_path))
        chaotic = run_campaign(
            chaos_tasks(seeds), workers=2, cell_timeout=3.0, retries=1
        )

        assert sorted((f.seed, f.kind) for f in chaotic.quarantined) == [
            (2, "crash"),
            (4, "timeout"),
        ]
        assert all(f.attempts == 2 for f in chaotic.quarantined)
        assert chaotic.retried >= 1  # the flaky cell needed a second round
        expected = [r for r in control.results if r.seed not in (2, 4)]
        assert [r.fingerprint() for r in chaotic.results] == [
            r.fingerprint() for r in expected
        ]

    def test_faulted_campaign_cells_differ_from_fault_free(self):
        """with_fault_plan changes cell identity and results."""
        plan = FaultPlan(faults=(MessageLoss(rate=0.4),), seed=9)
        faulted = [
            CellTask(
                spec=CellSpec(
                    builder="chaos-bounded", topology=ring(4), seed=seed
                ),
                build=with_fault_plan(chaos_bounded_builder, plan),
                certify=True,
            )
            for seed in (0, 1)
        ]
        clean = run_campaign(chaos_tasks([0, 1]))
        lossy = run_campaign(faulted)
        assert [r.precision for r in lossy.results] != [
            r.precision for r in clean.results
        ]
