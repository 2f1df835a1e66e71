"""The standard benchmark workloads, one per hot path the repo owns.

Importing this module populates :data:`repro.bench.registry.REGISTRY`
(the CLI and runner go through
:func:`~repro.bench.registry.load_default_workloads`, which imports it
exactly once).  Coverage, top to bottom of the stack:

* ``core.estimates`` -- the views front end: Lemma 6.1 uid matching
  and every link's Section 6 terms (named after the e2e layer), on
  views built once; ``core.estimates.fresh`` builds the views inside
  the timed call, as a campaign cell or a replay audit does;
* ``engine.pipeline`` -- the full GLOBAL ESTIMATES -> SHIFTS pipeline
  per backend x ring size (the E9c ablation; regenerates
  ``BENCH_engine.json``), with a numpy-only ladder at n=128 and 256 in
  the full suite;
* ``engine.closure`` / ``engine.karp`` -- the two matrix kernels
  (min-plus Floyd--Warshall closure, SHIFTS cycle mean + corrections) in
  isolation, so a regression in either is attributable, and in the full
  suite ``engine.locate``: Howard's and Karp's cycle locators alone;
* ``engine.incremental`` -- single-edge incremental closure repair
  (the online synchronizer's fast path; numpy backend only -- the
  python backend recomputes from scratch);
* ``sim.run`` -- the discrete-event simulator end to end;
* ``online.replay`` -- a recorded execution streamed through the
  OnlineSynchronizer (incremental repair + cache behaviour under
  realistic traffic);
* ``campaign.throughput`` -- the sharded campaign runner on the quick
  E9c grid, with ``campaign.cell.seconds`` latency percentiles;
* ``live.server`` -- a loopback UDP cluster answering a concurrent
  correction-query load, with ``live.server.request_seconds``
  percentiles (the ``serve`` ops surface's ``/metrics`` histogram);
* ``obs.recording`` / ``monitor.suite`` -- what an enabled recorder
  and an attached monitor suite cost relative to ``engine.pipeline``
  at the same size.

Setups build every input before returning the thunk, so scenario
simulation and matrix preparation never pollute the measurement.
"""

from __future__ import annotations

import numpy as np

from repro.bench.registry import SUITES, benchmark


def _smoke_sizes(*smoke_ns):
    """Suite selector: small sizes run in smoke, everything in full."""
    def select(params):
        return SUITES if params.get("n") in smoke_ns else ("full",)

    return select


def _pipeline_inputs(n: int, seed: int = 0):
    """The shared E9-methodology inputs: bounded ring, two probe rounds."""
    from repro.core.estimates import local_shift_estimates
    from repro.graphs import ring
    from repro.workloads.scenarios import bounded_uniform

    scenario = bounded_uniform(ring(n), lb=1.0, ub=3.0, probes=2, seed=seed)
    alpha = scenario.run()
    mls = local_shift_estimates(scenario.system, alpha.views())
    return scenario, alpha, mls


# ----------------------------------------------------------------------
# Views front end (Lemma 6.1 + Section 6 terms)
# ----------------------------------------------------------------------

@benchmark("core.estimates", grid={"n": (32, 128)}, suites=_smoke_sizes(32))
def core_estimates(n: int):
    """``local_shift_estimates`` on a heterogeneous sparse random graph:
    the uid matcher, the per-edge min/max reduce and every link's terms."""
    from repro.core.estimates import local_shift_estimates
    from repro.graphs import random_connected
    from repro.workloads.scenarios import heterogeneous

    scenario = heterogeneous(random_connected(n, 0.05, 0), seed=0, probes=2)
    system, views = scenario.system, scenario.run().views()

    def run():
        local_shift_estimates(system, views)

    return run


@benchmark(
    "core.estimates.fresh", grid={"n": (32, 128)}, suites=_smoke_sizes(32)
)
def core_estimates_fresh(n: int):
    """:func:`core_estimates` with the views built inside the timed call:
    each view's step walk (its message columns) is paid every time."""
    from repro.core.estimates import local_shift_estimates
    from repro.graphs import random_connected
    from repro.workloads.scenarios import heterogeneous

    scenario = heterogeneous(random_connected(n, 0.05, 0), seed=0, probes=2)
    system, alpha = scenario.system, scenario.run()

    def run():
        local_shift_estimates(system, alpha.views())

    return run


# ----------------------------------------------------------------------
# Engine: full pipeline + isolated kernels
# ----------------------------------------------------------------------

@benchmark(
    "engine.pipeline",
    grid={"backend": ("numpy",), "n": (128, 256)},
    suites=("full",),
)
@benchmark(
    "engine.pipeline",
    grid={"backend": ("python", "numpy"), "n": (8, 16, 32, 64)},
    suites=_smoke_sizes(16, 32),
)
def engine_pipeline(backend: str, n: int):
    """GLOBAL ESTIMATES -> SHIFTS, fresh synchronizer per call (E9c)."""
    from repro.core.synchronizer import ClockSynchronizer

    scenario, _, mls = _pipeline_inputs(n)
    system = scenario.system
    result = ClockSynchronizer(
        system, backend=backend
    ).from_local_estimates(mls)

    def run():
        ClockSynchronizer(system, backend=backend).from_local_estimates(mls)

    return run, {"precision": result.precision}


@benchmark(
    "engine.closure",
    grid={"backend": ("python", "numpy"), "n": (16, 32, 64)},
    suites=_smoke_sizes(32),
)
def engine_closure(backend: str, n: int):
    """The min-plus Floyd--Warshall closure kernel alone."""
    from repro.core.synchronizer import ClockSynchronizer
    from repro.engine import create_engine

    scenario, _, mls = _pipeline_inputs(n)
    sync = ClockSynchronizer(scenario.system, backend=backend)
    mls_matrix = sync.index.matrix(mls)
    engine = create_engine(backend)

    def run():
        engine.global_estimates(mls_matrix)

    return run


@benchmark(
    "engine.karp",
    grid={"backend": ("numpy",), "n": (128, 256)},
    suites=("full",),
)
@benchmark(
    "engine.karp",
    grid={"backend": ("python", "numpy"), "n": (16, 32, 64)},
    suites=_smoke_sizes(32),
)
def engine_karp(backend: str, n: int):
    """SHIFTS alone: Karp cycle mean + corrections on the closure."""
    from repro.core.synchronizer import ClockSynchronizer
    from repro.engine import create_engine

    scenario, _, mls = _pipeline_inputs(n)
    sync = ClockSynchronizer(scenario.system, backend=backend)
    mls_matrix = sync.index.matrix(mls)
    ms_matrix = create_engine(backend).global_estimates(mls_matrix)
    engine = create_engine(backend)

    def run():
        engine.shifts(ms_matrix)

    return run


@benchmark(
    "engine.locate",
    grid={"locator": ("howard", "karp"), "n": (64, 128, 256)},
    suites=("full",),
)
def engine_locate(locator: str, n: int):
    """SHIFTS' cycle locator alone on the (one-component) ``ms~`` of a
    heterogeneous sparse random graph, the e2e ``batch`` shape."""
    from repro import ClockSynchronizer, random_connected
    from repro.engine import numpy_backend
    from repro.workloads import heterogeneous

    scenario = heterogeneous(random_connected(n, 0.05, 0), seed=0, probes=2)
    views = scenario.run().views()
    ms = ClockSynchronizer(scenario.system).from_views(views).ms_tilde.matrix
    locate = getattr(numpy_backend, f"{locator}_cycle")
    return lambda: locate(ms)


@benchmark(
    "engine.incremental",
    grid={"n": (16, 32, 64)},
    suites=_smoke_sizes(32),
)
def engine_incremental(n: int):
    """Single-edge incremental closure repair (numpy fast path)."""
    from repro.core.synchronizer import ClockSynchronizer
    from repro.engine import create_engine

    scenario, _, mls = _pipeline_inputs(n)
    sync = ClockSynchronizer(scenario.system, backend="numpy")
    mls_matrix = sync.index.matrix(mls)
    engine = create_engine("numpy")
    ms_matrix = engine.global_estimates(mls_matrix)
    # Tighten one finite off-diagonal mls~ entry, as one new message
    # observation would.
    finite = np.argwhere(
        np.isfinite(mls_matrix)
        & ~np.eye(len(mls_matrix), dtype=bool)
    )
    i, j = (int(v) for v in finite[0])
    change = [(i, j, float(mls_matrix[i, j]) - 1e-3)]

    def run():
        repaired = engine.incremental_update(ms_matrix, change)
        assert repaired is not None, "numpy backend lost incremental path"

    return run


# ----------------------------------------------------------------------
# Simulator + online synchronizer
# ----------------------------------------------------------------------

@benchmark(
    "sim.run",
    grid={"n": (8, 16, 32)},
    suites=_smoke_sizes(16),
    histograms=("sim.message.delay", "sim.scheduler.queue_depth"),
)
def sim_run(n: int):
    """The discrete-event simulator end to end (probe traffic on a ring)."""
    from repro.graphs import ring
    from repro.workloads.scenarios import bounded_uniform

    scenario = bounded_uniform(ring(n), lb=1.0, ub=3.0, probes=2, seed=0)

    def run():
        scenario.run()

    return run


@benchmark(
    "online.replay",
    grid={"n": (8, 16, 64)},
    suites=_smoke_sizes(16),
)
def online_replay(n: int):
    """A recorded execution streamed through the OnlineSynchronizer.

    Exercises the production serving path: monotone ingestion, cache
    invalidation, incremental repair with full-recompute fallback.
    """
    from repro.obs.timeline import replay_online

    scenario, alpha, _ = _pipeline_inputs(n)
    system = scenario.system

    def run():
        replay_online(system, alpha)

    return run


# ----------------------------------------------------------------------
# Campaign runner throughput
# ----------------------------------------------------------------------

@benchmark(
    "campaign.throughput",
    suites=SUITES,
    histograms=("campaign.cell.seconds", "campaign.queue.depth"),
)
def campaign_throughput():
    """The quick E9c grid on the sequential campaign runner.

    Wall time is grid latency; the ``campaign.cell.seconds`` percentiles
    harvested from the instrumented pass are the per-cell latency
    distribution a fleet operator would watch.
    """
    from repro.experiments.common import e9c_campaign

    campaign, topologies = e9c_campaign(quick=True)

    def run():
        campaign.run_results(topologies, workers=1)

    return run


# ----------------------------------------------------------------------
# Live runtime: correction server under query load
# ----------------------------------------------------------------------

@benchmark(
    "live.server",
    grid={"peers": (4,), "queries": (400,)},
    suites=SUITES,
    histograms=("live.server.request_seconds",),
)
def live_server(peers: int, queries: int):
    """A loopback cluster serving a concurrent correction-query load.

    Wall time covers the full query load against an already-warm
    cluster of real asyncio UDP peers; the
    ``live.server.request_seconds`` percentiles harvested from the
    instrumented pass are the per-request latency distribution the
    ``serve`` ops surface exports at ``/metrics``.
    """
    import asyncio

    from repro.live.cluster import ClusterConfig, LiveCluster

    async def drive():
        cluster = LiveCluster(ClusterConfig(peers=peers, interval=0.01))
        async with cluster:
            await cluster.wait_for_observations(6 * peers)
            load = await cluster.query_load(queries, concurrency=8)
            replay = cluster.verify_replay()
        assert replay.ok, replay.describe()
        return load

    def run():
        load = asyncio.run(drive())
        assert load.ok_answers == queries

    return run


# ----------------------------------------------------------------------
# Observability + monitor overhead
# ----------------------------------------------------------------------

@benchmark("obs.recording", grid={"n": (32,)}, suites=SUITES)
def obs_recording(n: int):
    """Pipeline under a live recorder -- the cost of tracing.

    Compare against ``engine.pipeline[backend=numpy,n=32]`` (measured
    under the no-op recorder) for the enabled-observability overhead
    ratio; ``benchmarks/test_obs_overhead.py`` asserts the disabled
    path stays free.
    """
    from repro.core.synchronizer import ClockSynchronizer
    from repro.obs import recording

    scenario, _, mls = _pipeline_inputs(n)
    system = scenario.system

    def run():
        with recording():
            ClockSynchronizer(
                system, backend="numpy"
            ).from_local_estimates(mls)

    return run


@benchmark("monitor.suite", grid={"n": (32,)}, suites=SUITES)
def monitor_suite(n: int):
    """Pipeline with the invariant monitors attached and checking."""
    from repro.core.synchronizer import ClockSynchronizer
    from repro.obs import recording
    from repro.obs.monitor import MonitorSuite

    scenario, _, mls = _pipeline_inputs(n)
    system = scenario.system

    def run():
        with recording() as rec:
            rec.add_observer(MonitorSuite())
            ClockSynchronizer(
                system, backend="numpy"
            ).from_local_estimates(mls)

    return run
