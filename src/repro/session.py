"""Typed run configuration: :class:`Session` and :class:`ObsOptions`.

Before this module the same bundle of knobs -- observability exports,
worker count, fault plan -- was re-declared as loose kwargs by
:func:`repro.run`, :func:`repro.sweep`,
:meth:`Campaign.run <repro.workloads.campaign.Campaign.run>` and five
CLI subcommands, each copy drifting slightly.  These two dataclasses
are the single home:

* :class:`ObsOptions` -- which telemetry to record and where to export
  it.  :meth:`ObsOptions.activate` installs a recorder for a ``with``
  block and performs the exports on exit (the exact behaviour the CLI's
  private ``_observability`` helper used to implement).
* :class:`Session` -- everything else a run shares: pipeline root,
  certification, worker count, fault plan.  Pass one
  ``session=`` to :func:`repro.run` / :func:`repro.sweep` instead of
  repeating the kwargs.

:func:`resolve_source` is the companion input adapter: the ``source=``
parameter of :func:`repro.run` accepts a recorded
:class:`~repro.model.execution.Execution`, a views mapping, a simulator
:class:`~repro.workloads.scenarios.Scenario`, a live
:class:`~repro.live.trace.ProbeLog`, or a path to either archive kind
-- sim and live traffic flow through one entry point (Claim 3.1:
corrections are a function of the views, wherever the views came from).

All fields are keyword-only by policy (DESIGN.md section 9).
"""

from __future__ import annotations

import logging
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Mapping, Optional, Union

from repro._types import ProcessorId

_LOG_LEVELS = ("debug", "info", "warning", "error")

#: Printer used for export notices (tests swap it for a sink).
Printer = Callable[[str], None]


@dataclass
class ObsOptions:
    """Which telemetry to record, and where the exports go.

    With every field at its default the options are *inert*:
    :meth:`activate` leaves the no-op recorder installed and the run
    pays nothing.  Set ``force=True`` to record even with no export
    destination (commands that print from the live registry do this).
    """

    trace_out: Optional[str] = None     #: Chrome trace-event JSON (spans)
    metrics_out: Optional[str] = None   #: metrics registry as JSONL
    flow_out: Optional[str] = None      #: message-causality flow trace
    log_jsonl: Optional[str] = None     #: structured operational log
    log_level: Optional[str] = None     #: repro logger level name
    timings: bool = False               #: print engine stage timings
    force: bool = False                 #: record even with no exports

    @classmethod
    def from_args(cls, args, *, force: bool = False) -> "ObsOptions":
        """Collect the shared observability flags off an argparse namespace."""
        return cls(
            trace_out=getattr(args, "trace_out", None),
            metrics_out=getattr(args, "metrics_out", None),
            flow_out=getattr(args, "flow_out", None),
            log_jsonl=getattr(args, "log_jsonl", None),
            log_level=getattr(args, "log_level", None),
            timings=bool(getattr(args, "timings", False)),
            force=force,
        )

    @property
    def wanted(self) -> bool:
        """Whether any setting requires a live recorder."""
        return (
            self.force
            or self.trace_out is not None
            or self.metrics_out is not None
            or self.flow_out is not None
            or self.timings
        )

    @contextmanager
    def activate(self, *, printer: Printer = print) -> Iterator:
        """Install a recorder for the block when telemetry is wanted.

        Yields the active :class:`~repro.obs.recorder.Recorder`, or
        ``None`` when everything is off.  Exports happen on exit, after
        the block's own output, each announced through ``printer``.
        """
        if self.log_level:
            logging.basicConfig(
                format="%(name)s %(levelname)s: %(message)s"
            )
            logging.getLogger("repro").setLevel(self.log_level.upper())
        log_sink = None
        if self.log_jsonl is not None:
            from repro.obs.log import add_log_sink

            log_sink = add_log_sink(self.log_jsonl)
        if not self.wanted:
            try:
                yield None
            finally:
                if log_sink is not None:
                    log_sink.close()
            return
        from repro.obs import FlowLog, Recorder, set_recorder

        recorder = Recorder()
        flow_log = None
        if self.flow_out is not None:
            flow_log = FlowLog()
            recorder.add_observer(flow_log)
        previous = set_recorder(recorder)
        try:
            yield recorder
        finally:
            set_recorder(previous)
            if log_sink is not None:
                log_sink.close()
            self._export(recorder, flow_log, printer)

    def _export(self, recorder, flow_log, printer: Printer) -> None:
        from repro.obs import write_chrome_trace, write_metrics_jsonl

        if self.trace_out is not None:
            spans = recorder.tracer.finished()
            path = write_chrome_trace(self.trace_out, spans)
            printer(f"trace written:   {path}  ({len(spans)} spans; "
                    f"open in Perfetto)")
        if self.metrics_out is not None:
            path = write_metrics_jsonl(self.metrics_out, recorder.registry)
            printer(f"metrics written: {path}  "
                    f"({len(recorder.registry)} series)")
        if self.flow_out is not None and flow_log is not None:
            from repro.obs import write_flow_trace

            path = write_flow_trace(
                self.flow_out, flow_log, recorder.tracer.finished()
            )
            printer(f"flows written:   {path}  ({len(flow_log)} messages; "
                    f"open in Perfetto)")


@dataclass
class Session:
    """The cross-cutting configuration of one run, sweep, or service.

    One object replaces the workers/faults/obs kwargs that used
    to be threaded separately through every entry point.  Fields left
    at ``None`` defer to each call site's own default, so a partially
    filled session composes with explicit keyword overrides (explicit
    wins).
    """

    workers: Optional[int] = None          #: campaign worker processes
    certify: Optional[bool] = None         #: verify optimality certificates
    root: Optional[ProcessorId] = None     #: correction gauge processor
    #: a :class:`~repro.faults.plan.FaultPlan` or a path to one.
    faults: Union[object, str, Path, None] = None
    obs: ObsOptions = field(default_factory=ObsOptions)

    def fault_plan(self):
        """The resolved fault plan (loads a path; ``None`` stays ``None``).

        Raises :class:`~repro.faults.plan.FaultPlanError` on a bad file
        -- callers with a user interface catch it there.
        """
        if self.faults is None:
            return None
        if isinstance(self.faults, (str, Path)):
            from repro.faults.plan import load_fault_plan

            return load_fault_plan(str(self.faults))
        return self.faults


def resolve_source(
    source,
    *,
    processors=(),
) -> Mapping[ProcessorId, "object"]:
    """Normalize any supported ``source=`` into a views mapping.

    Accepted shapes, in the order they are recognised:

    * a views mapping (``{processor: View}``) -- returned as-is;
    * a recorded :class:`~repro.model.execution.Execution` -- its views
      (Claim 3.1: nothing else is consulted);
    * a simulator :class:`~repro.workloads.scenarios.Scenario` -- run
      once, then its execution's views;
    * a live :class:`~repro.live.trace.ProbeLog` -- synthetic views of
      the probe traffic (``processors`` forces empty views for silent
      system members);
    * a ``str``/``Path`` -- a live probe log (JSONL of ``live.probe``
      records) or a recorded trace archive (``trace.json``), sniffed in
      that order.
    """
    from repro.model.execution import Execution
    from repro.model.views import View

    if isinstance(source, Execution):
        return source.views()
    if isinstance(source, Mapping):
        for value in source.values():
            if not isinstance(value, View):
                raise TypeError(
                    f"source mapping must hold View values, got "
                    f"{type(value).__name__}"
                )
        return source
    from repro.live.trace import ProbeLog

    if isinstance(source, ProbeLog):
        return source.views(processors=processors)
    if isinstance(source, (str, Path)):
        return _views_from_path(Path(source), processors=processors)
    run = getattr(source, "run", None)
    if callable(run):  # Scenario, or anything scenario-shaped
        execution = run()
        if not isinstance(execution, Execution):
            raise TypeError(
                f"source {type(source).__name__}.run() returned "
                f"{type(execution).__name__}, expected Execution"
            )
        return execution.views()
    raise TypeError(
        f"unsupported source type {type(source).__name__}: expected an "
        f"Execution, a views mapping, a Scenario, a ProbeLog, or a path"
    )


def _views_from_path(path: Path, *, processors=()):
    """Sniff a source file: live probe log first, trace archive second."""
    from repro.live.trace import ProbeLogError, load_probe_log
    from repro.records import RecordError, iter_records

    try:
        _, first = next(iter_records(path), (0, {}))
    except RecordError:
        first = {}  # e.g. the indented first line of a trace archive
    if first.get("type") == "live.probe":
        return load_probe_log(path).views(processors=processors)
    try:
        from repro.analysis.trace import load_execution

        return load_execution(str(path)).views()
    except (ValueError, KeyError) as exc:
        raise ProbeLogError(
            f"{path} is neither a live probe log nor a trace archive: "
            f"{exc}"
        ) from None


__all__ = ["ObsOptions", "Printer", "Session", "resolve_source"]
