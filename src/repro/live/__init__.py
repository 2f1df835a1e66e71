"""Live clock synchronization over real sockets.

The discrete-event pipeline of :mod:`repro` computes optimal
corrections from *views* (Claim 3.1).  This package produces those
views from reality: asyncio UDP peers exchange timestamped probes
(:mod:`repro.live.peer`), a correction server ingests the resulting
observations into the :class:`~repro.extensions.online.OnlineSynchronizer`
and answers per-client correction queries with request batching and a
freshness-bounded cache (:mod:`repro.live.server`), and an append-only
probe log (:mod:`repro.live.trace`) makes every served answer
replayable offline -- byte-for-byte -- through
``ClockSynchronizer.from_views`` (:mod:`repro.live.replay`).

:mod:`repro.live.cluster` boots the whole arrangement on loopback for
tests, benchmarks, and the CI live job.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "ClusterConfig": "repro.live.cluster",
    "Correction": "repro.live.wire",
    "CorrectionClient": "repro.live.server",
    "CorrectionServer": "repro.live.server",
    "DEFAULT_FRESHNESS": "repro.live.server",
    "LIVE_TRANSPORT_CONFIG": "repro.live.transport",
    "LiveClock": "repro.live.clock",
    "LiveCluster": "repro.live.cluster",
    "LoadResult": "repro.live.cluster",
    "LossyNetwork": "repro.live.transport",
    "ManualClock": "repro.live.clock",
    "PROBE_RECORD_TYPE": "repro.live.trace",
    "PeerConfig": "repro.live.peer",
    "Probe": "repro.live.wire",
    "ProbeLog": "repro.live.trace",
    "ProbeLogError": "repro.live.trace",
    "ProbePeer": "repro.live.peer",
    "Query": "repro.live.wire",
    "ReplayMismatch": "repro.live.replay",
    "ReplayReport": "repro.live.replay",
    "Report": "repro.live.wire",
    "SERVER_ID": "repro.live.server",
    "Seg": "repro.live.wire",
    "SegAck": "repro.live.wire",
    "SegmentChannel": "repro.live.transport",
    "WireError": "repro.live.wire",
    "decode": "repro.live.wire",
    "default_offsets": "repro.live.cluster",
    "encode": "repro.live.wire",
    "live_system": "repro.live.cluster",
    "load_probe_log": "repro.live.trace",
    "replay_cut": "repro.live.replay",
    "run_smoke": "repro.live.cluster",
    "smoke": "repro.live.cluster",
    "start_client": "repro.live.server",
    "start_correction_server": "repro.live.server",
    "start_peer": "repro.live.peer",
    "validate_probe_log_file": "repro.live.trace",
    "verify_replay_equality": "repro.live.replay",
    "views_from_probes": "repro.live.trace",
    "write_probe_log": "repro.live.trace",
}

__all__ = [*_EXPORTS]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
