"""Property tests for the simulator transport driver.

Two halves of the determinism contract (module docstring of
:mod:`repro.sim.transport`):

* **byte-equality**: with no loss, an rto above the worst round trip
  and a roomy window, the transport run reproduces the transport-free
  reference path report-for-report;
* **replayability**: same ``(seed, plan)`` means identical frames,
  retransmit schedules, emergent delays, and reports.

Plus the accounting invariant: handed = delivered + undelivered +
dropped_unreachable on every directed edge, under loss and partitions,
and the fail-silent rule: a processor inside a crash window takes no
step, so nothing leaves it.
"""

import pytest

from repro.delays.bounds import BoundedDelay
from repro.delays.distributions import UniformDelay
from repro.delays.system import System
from repro.faults.plan import (
    FaultPlan,
    LinkDown,
    MessageLoss,
    ProcessorCrash,
)
from repro.graphs import complete, ring
from repro.sim.network import draw_start_times
from repro.sim.transport import (
    TransportTrace,
    direct_probe_reports,
    run_transport_probes,
)
from repro.transport import Emit, ReliableTransport, TransportConfig

LB, UB = 1.0, 2.0

#: rto above the worst round trip (2 * UB, jittered) so zero loss means
#: zero retransmissions; window above rounds so nothing queues.
CLEAN_CONFIG = TransportConfig(
    rto_initial=4.5, rto_max=24.0, backoff=2.0, jitter=0.1,
    window=64, max_retries=5,
)


def _setup(topo, seed):
    system = System.uniform(topo, BoundedDelay.symmetric(LB, UB))
    samplers = {link: UniformDelay(LB, UB) for link in topo.links}
    starts = draw_start_times(topo.nodes, max_skew=3.0, seed=seed)
    return system, samplers, starts


def _run(topo, seed, plan=None, rounds=6, config=CLEAN_CONFIG):
    system, samplers, starts = _setup(topo, seed)
    return run_transport_probes(
        system, samplers, starts,
        probe_times=tuple(5.0 * (k + 1) for k in range(rounds)),
        seed=seed, plan=plan, config=config,
    )


class TestByteEquality:
    @pytest.mark.parametrize("topo_factory", [lambda: ring(4),
                                              lambda: complete(3)])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_zero_loss_trace_matches_direct_path(self, topo_factory, seed):
        topo = topo_factory()
        system, samplers, starts = _setup(topo, seed)
        probe_times = tuple(5.0 * (k + 1) for k in range(6))
        trace = run_transport_probes(
            system, samplers, starts, probe_times=probe_times,
            seed=seed, config=CLEAN_CONFIG,
        )
        direct = direct_probe_reports(
            system, samplers, starts, probe_times=probe_times, seed=seed,
        )
        by_key = {(r.sender, r.receiver, r.seq): r for r in trace.reports}
        assert set(by_key) == set(direct)
        for key, report in direct.items():
            # Dataclass equality: every field byte-identical (floats
            # compared exactly -- same draws, same arithmetic).
            assert by_key[key] == report, key
        assert trace.retransmits() == 0
        assert trace.max_emergent_delay() <= UB

    def test_zero_loss_views_synchronize_identically(self):
        from repro.core.synchronizer import ClockSynchronizer

        topo = ring(4)
        system, samplers, starts = _setup(topo, seed=3)
        probe_times = tuple(5.0 * (k + 1) for k in range(6))
        trace = run_transport_probes(
            system, samplers, starts, probe_times=probe_times,
            seed=3, config=CLEAN_CONFIG,
        )
        result = ClockSynchronizer(system).from_views(trace.views())
        assert result.precision > 0.0


class TestDeterminism:
    def test_same_seed_same_trace_under_loss(self):
        topo = ring(4)
        plan = FaultPlan(
            faults=(MessageLoss(rate=0.3),), seed=11, name="det"
        )
        a = _run(topo, seed=11, plan=plan)
        b = _run(topo, seed=11, plan=plan)
        assert a.reports == b.reports
        assert a.real_delays == b.real_delays
        assert a.retransmits() == b.retransmits()
        assert a.summary == b.summary
        assert a.retransmits() > 0  # the loss actually bit

    def test_different_seed_different_trace(self):
        topo = ring(4)
        plan = FaultPlan(faults=(MessageLoss(rate=0.3),), seed=11)
        a = _run(topo, seed=11, plan=plan)
        b = _run(topo, seed=12, plan=plan)
        assert a.reports != b.reports


class TestAccounting:
    def test_fully_accounted_under_loss(self):
        trace = _run(
            ring(4), seed=5,
            plan=FaultPlan(faults=(MessageLoss(rate=0.4),), seed=5),
        )
        assert trace.fully_accounted
        for row in trace.accounting().values():
            assert row["handed"] == (
                row["delivered"] + row["undelivered"]
                + row["dropped_unreachable"]
            )
        # Emergent delays exceed the frame bound once retransmission bites.
        assert trace.max_emergent_delay() > UB

    def test_link_down_gives_up_and_stays_accounted(self):
        topo = ring(4)
        plan = FaultPlan(
            faults=(LinkDown(edge=(0, 1)),), seed=0, name="partition"
        )
        trace = _run(topo, seed=0, plan=plan, rounds=8)
        # Both directions of the dead link eventually give up.
        assert set(trace.unreachable) == {(0, 1), (1, 0)}
        assert trace.fully_accounted
        summary_01 = trace.edge_summary(0, 1)
        assert summary_01["give_ups"] == 1
        assert summary_01["undelivered"] > 0
        assert summary_01["delivered"] == 0
        # The rest of the ring still delivered everything.
        assert trace.edge_summary(1, 2)["delivered"] == 8

    def test_asymmetric_loss_inflates_only_one_direction(self):
        topo = ring(4)
        plan = FaultPlan(
            faults=(MessageLoss(rate=0.5, edge=(0, 1)),), seed=2
        )
        trace = _run(topo, seed=2, plan=plan, rounds=8)
        assert trace.edge_summary(0, 1)["retransmits"] > 0
        # Loss on the 0 -> 1 direction also eats acks for 1 -> 0 data,
        # so 1 may *retransmit* -- but its first copies always get
        # through: reverse delivery delays stay inside the frame bounds
        # while forward ones escape them.
        fwd = [d for (s, r, _), d in trace.real_delays.items()
               if (s, r) == (0, 1)]
        rev = [d for (s, r, _), d in trace.real_delays.items()
               if (s, r) == (1, 0)]
        assert max(fwd) > UB
        assert max(rev) <= UB


class TestTraceArtifacts:
    def test_views_and_probe_log_round_trip(self):
        trace = _run(ring(4), seed=1)
        views = trace.views()
        assert set(views) == set(trace.processors)
        assert len(trace.probe_log) == len(trace.reports)

    def test_trace_is_a_plain_dataclass(self):
        trace = _run(ring(4), seed=1)
        assert isinstance(trace, TransportTrace)
        assert trace.summary.messages_dropped == 0
        assert trace.fault_log is None


class TestCrashWindow:
    """Fail-silent crash windows (DESIGN.md section 10): a crashed
    processor takes no step -- no probe round, no ack, no retransmit."""

    AT, RESTART = 12.0, 40.0

    def _crash_run(self, monkeypatch, at=AT, restart=RESTART):
        """The run, plus (sender, real time) of every frame the machines
        emitted -- a crashed processor's machine must never be asked."""
        emitted = []
        for name in ("send", "on_frame", "on_timer"):
            def spy(machine, *args, _original=getattr(ReliableTransport, name)):
                actions = _original(machine, *args)
                now = args[-1]
                emitted.extend(
                    (a.frame.src, now) for a in actions if isinstance(a, Emit)
                )
                return actions

            monkeypatch.setattr(ReliableTransport, name, spy)
        plan = FaultPlan(
            faults=(
                MessageLoss(rate=0.5),
                ProcessorCrash(0, at=at, restart=restart),
            ),
            seed=3,
        )
        config = TransportConfig(
            rto_initial=0.5, rto_max=4.0, backoff=2.0, jitter=0.1,
            window=64, max_retries=8,
        )
        trace = _run(ring(4), seed=1, plan=plan, rounds=8, config=config)
        return trace, emitted

    def test_crashed_processor_sends_nothing(self, monkeypatch):
        trace, sent = self._crash_run(monkeypatch)
        assert sent
        inside = [
            now for sender, now in sent
            if sender == 0 and self.AT <= now < self.RESTART
        ]
        assert inside == []
        # Node 0 did send before the crash and after the restart.
        assert any(s == 0 and now < self.AT for s, now in sent)
        assert any(s == 0 and now >= self.RESTART for s, now in sent)

    def test_every_suppression_is_logged_once(self, monkeypatch):
        trace, _ = self._crash_run(monkeypatch)
        suppressed = trace.fault_log.count("processor-crash")
        assert suppressed > 0
        assert suppressed == trace.summary.crash_suppressed
        kinds = {e.detail["suppressed"] for e in trace.fault_log
                 if e.kind == "processor-crash"}
        assert kinds >= {"recv", "probe"}
        assert all(e.processor == 0 for e in trace.fault_log
                   if e.kind == "processor-crash")

    def test_ledger_identity_holds_on_every_edge(self, monkeypatch):
        trace, _ = self._crash_run(monkeypatch)
        for row in trace.ledger.values():
            assert row["lost"] == 0
            assert row["handed"] == (
                row["delivered"] + row["undelivered"]
                + row["dropped_unreachable"] + row["pending"]
            )

    def test_segments_outstanding_at_a_permanent_crash_stay_pending(
        self, monkeypatch
    ):
        # Node 0 never restarts: the segment it had in flight when it
        # crashed is neither retransmitted nor given up on, so the
        # drained run counts it as pending -- still accounted for.
        trace, _ = self._crash_run(monkeypatch, at=10.5, restart=None)
        assert trace.ledger[(0, 1)]["pending"] == 1
        assert trace.fully_accounted
