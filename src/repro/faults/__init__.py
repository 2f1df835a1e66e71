"""Fault injection: deterministic misbehaviour for graceful degradation.

The paper assumes a benign delivery system; this package deliberately
breaks that assumption.  A :class:`FaultPlan` (declarative, seeded,
JSON round-trippable) describes message loss, link outages, processor
crashes, timestamp corruption and duplicate delivery; the
:class:`FaultInjector` executes it inside
:class:`~repro.sim.network.NetworkSimulator`, logging every injection
and emitting ``fault.injected`` telemetry events.  DESIGN.md section 10
specifies the degradation semantics each downstream layer must uphold.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "DispatchDecision": "repro.faults.injector",
    "DuplicateDelivery": "repro.faults.plan",
    "Fault": "repro.faults.plan",
    "FaultInjector": "repro.faults.injector",
    "FaultLog": "repro.faults.injector",
    "FaultPlan": "repro.faults.plan",
    "FaultPlanError": "repro.faults.plan",
    "InjectedFault": "repro.faults.injector",
    "LinkDown": "repro.faults.plan",
    "MessageLoss": "repro.faults.plan",
    "ProcessorCrash": "repro.faults.plan",
    "TimestampCorruption": "repro.faults.plan",
    "dump_fault_plan": "repro.faults.plan",
    "example_plan": "repro.faults.plan",
    "load_fault_plan": "repro.faults.plan",
}

__all__ = [*_EXPORTS]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
