"""The correction server and the live == offline contract.

ISSUE requirements covered here:

* served corrections equal the batch pipeline run offline on the probe
  log's prefix at the served cut -- byte-identical, across multiple
  cuts (the tentpole's replay-equality acceptance criterion);
* concurrent clients are answered, query bursts coalesce onto a
  single-flight refresh (the ``live.server.coalesced`` counter), and
  the freshness bound limits how stale a served cut can be;
* transport and ingest defects (torn datagrams, unframed reports,
  duplicate reports, unknown edges, unknown clients) degrade via
  counters, never crash.
"""

import asyncio

import pytest

from repro.extensions.online import OnlineSynchronizer
from repro.graphs.topology import complete
from repro.live.cluster import ClusterConfig, LiveCluster, live_system
from repro.live.replay import replay_cut, verify_replay_equality
from repro.live.trace import ProbeLog
from repro.live.server import (
    SERVER_ID,
    CorrectionServer,
    start_client,
    start_correction_server,
)
from repro.live.wire import Query, Report, Seg, encode
from repro.model.events import MessageReceiveEvent
from repro.obs.recorder import Recorder, recording
from repro.workloads.scenarios import lower_bound_only


def make_reports(rounds=4, n=3, spacing=1.0):
    """Deterministic bidirectional traffic on the complete graph K_n."""
    processors = list(range(n))
    reports = []
    seq = 0
    for k in range(rounds):
        base = k * spacing * n * n
        for i in processors:
            for j in processors:
                if i == j:
                    continue
                send = base + (i * n + j) * spacing
                reports.append(Report(
                    sender=i, receiver=j, seq=seq,
                    send_clock=send,
                    recv_clock=send + 0.5 + 0.01 * ((i + j + k) % 3),
                ))
        seq += 1
    return reports


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def make_server(**options):
    system = live_system(complete(3))
    return CorrectionServer(system, **options)


async def ingest(server, reports):
    for report in reports:
        server._ingest(report)


class TestIngest:
    def test_reports_enter_log_in_order(self):
        server = make_server()
        reports = make_reports(rounds=2)
        asyncio.run(ingest(server, reports))
        assert list(server.probe_log) == reports
        assert server.reports_ingested == len(reports)

    def test_duplicate_report_dropped(self):
        server = make_server()
        reports = make_reports(rounds=1)
        with recording(Recorder()) as rec:
            asyncio.run(ingest(server, reports + [reports[0]]))
        assert len(server.probe_log) == len(reports)
        assert rec.registry.counter(
            "live.server.reports_duplicate"
        ).value == 1

    def test_unknown_edge_dropped(self):
        server = make_server()
        with recording(Recorder()) as rec:
            asyncio.run(ingest(server, [
                Report(sender=0, receiver=99, seq=0,
                       send_clock=0.0, recv_clock=0.5),
            ]))
        assert len(server.probe_log) == 0
        assert rec.registry.counter(
            "live.server.reports_unknown_edge"
        ).value == 1

    def test_raw_report_rejected(self):
        """An unframed report is outside input: counted, never ingested."""
        server = make_server()
        [report] = make_reports(rounds=1)[:1]
        with recording(Recorder()) as rec:
            server.datagram_received(encode(report), ("127.0.0.1", 1))
        assert server.reports_ingested == 0
        assert len(server.probe_log) == 0
        assert rec.registry.counter(
            "live.server.datagrams_unexpected"
        ).value == 1

    def test_torn_datagram_counted_not_crashing(self):
        async def scenario():
            server = await start_correction_server(live_system(complete(3)))
            try:
                with recording(Recorder()) as rec:
                    server.datagram_received(b"\xff torn",
                                             ("127.0.0.1", 1))
                    await asyncio.sleep(0)
                return rec.registry.counter(
                    "live.server.datagrams_invalid"
                ).value
            finally:
                server.close()

        assert asyncio.run(scenario()) == 1


class TestServing:
    def test_pending_before_enough_traffic(self):
        async def scenario():
            server = await start_correction_server(live_system(complete(3)))
            try:
                client = await start_client(server.address, 0)
                answer = await client.query(timeout=2.0)
                client.close()
                return answer
            finally:
                server.close()

        answer = asyncio.run(scenario())
        assert answer.status == "pending"
        assert answer.correction is None and answer.precision is None

    def test_unknown_client_flagged(self):
        async def scenario():
            server = await start_correction_server(live_system(complete(3)))
            await ingest(server, make_reports())
            try:
                client = await start_client(server.address, "nobody")
                answer = await client.query(timeout=2.0)
                client.close()
                return answer
            finally:
                server.close()

        assert asyncio.run(scenario()).status == "unknown"

    def test_concurrent_clients_all_answered(self):
        async def scenario():
            server = await start_correction_server(live_system(complete(3)))
            await ingest(server, make_reports())
            clients = [
                await start_client(server.address, i % 3) for i in range(6)
            ]
            try:
                answers = await asyncio.gather(
                    *(c.query(timeout=2.0) for c in clients)
                )
            finally:
                for c in clients:
                    c.close()
                server.close()
            return answers

        answers = asyncio.run(scenario())
        assert [a.status for a in answers] == ["ok"] * 6
        by_client = {a.client: a.correction for a in answers}
        # Same cut, same result object: identical corrections per client.
        assert len({a.cut for a in answers}) == 1
        assert len(by_client) == 3

    def test_query_burst_coalesces_onto_one_refresh(self):
        async def scenario():
            clock = FakeClock()
            server = await start_correction_server(
                live_system(complete(3)), time_fn=clock
            )
            await ingest(server, make_reports())
            try:
                with recording(Recorder()) as rec:
                    # A burst of concurrent cache misses: all but the
                    # first must coalesce onto the in-flight refresh.
                    await asyncio.gather(
                        *(server._current_result() for _ in range(8))
                    )
                    refreshes = rec.registry.counter(
                        "live.server.refreshes"
                    ).value
                    coalesced = rec.registry.counter(
                        "live.server.coalesced"
                    ).value
                return refreshes, coalesced
            finally:
                server.close()

        refreshes, coalesced = asyncio.run(scenario())
        assert refreshes == 1
        assert coalesced == 7

    def test_freshness_bounds_served_staleness(self):
        async def scenario():
            clock = FakeClock()
            server = await start_correction_server(
                live_system(complete(3)), freshness=0.5, time_fn=clock
            )
            reports = make_reports(rounds=4)
            await ingest(server, reports[:18])
            first = await server._current_result()
            # New traffic arrives: the cache is stale but young.
            await ingest(server, reports[18:])
            clock.now += 0.25
            young = await server._current_result()
            # Same query after the freshness window: must recompute.
            clock.now += 0.5
            refreshed = await server._current_result()
            server.close()
            return first, young, refreshed, len(server.probe_log)

        first, young, refreshed, total = asyncio.run(scenario())
        assert first.cut == 18
        assert young is first  # served stale within the bound
        assert refreshed.cut == total  # caught up after the bound

    def test_exact_cache_served_forever(self):
        async def scenario():
            clock = FakeClock()
            server = await start_correction_server(
                live_system(complete(3)), freshness=0.01, time_fn=clock
            )
            await ingest(server, make_reports())
            first = await server._current_result()
            clock.now += 1000.0  # way past freshness; no new traffic
            again = await server._current_result()
            server.close()
            return first, again

        first, again = asyncio.run(scenario())
        assert again is first  # cut still == len(log): exact, no refresh

    def test_health_transitions(self):
        async def scenario():
            server = await start_correction_server(live_system(complete(3)))
            try:
                empty = server.health_json()
                await ingest(server, make_reports())
                client = await start_client(server.address, 0)
                await client.query(timeout=2.0)
                client.close()
                serving = server.health_json()
                return empty, serving
            finally:
                server.close()

        empty, serving = asyncio.run(scenario())
        assert empty["status"] == "pending" and empty["healthy"]
        assert serving["status"] == "ok" and serving["healthy"]
        assert serving["served_cut"] == serving["admitted"]


class TestReplayEquality:
    def test_served_answers_replay_byte_identical(self):
        """The tentpole contract, over multiple distinct cuts."""
        async def scenario():
            clock = FakeClock()
            server = await start_correction_server(
                live_system(complete(3)), freshness=0.01, time_fn=clock
            )
            reports = make_reports(rounds=6)
            clients = [
                await start_client(server.address, i) for i in range(3)
            ]
            try:
                for cut in (18, 30, len(reports)):
                    await ingest(server, reports[len(server.probe_log):cut])
                    clock.now += 1.0  # expire the freshness window
                    for client in clients:
                        await client.query(timeout=2.0)
            finally:
                for c in clients:
                    c.close()
                server.close()
            return server

        server = asyncio.run(scenario())
        report = verify_replay_equality(
            server.probe_log, server.answers, server.system
        )
        assert report.ok, report.describe()
        assert report.checked == 9
        assert report.cuts == (18, 30, 36)

    def test_non_finite_report_dropped_answers_stay_ok(self):
        """A framed report whose clock reads Infinity never reaches the
        statistics or the log: later answers stay "ok" and replay."""
        async def scenario():
            clock = FakeClock()
            server = await start_correction_server(
                live_system(complete(3)), freshness=0.01, time_fn=clock
            )
            reports = make_reports(rounds=6)
            bad = Report(sender=0, receiver=1, seq=99, send_clock=1.0,
                         recv_clock=float("inf"))
            data = encode(Seg(src=1, dst=SERVER_ID, seq=0, inner=bad))
            assert b"Infinity" in data
            client = await start_client(server.address, 0)
            answers = []
            try:
                with recording(Recorder()) as rec:
                    await ingest(server, reports[:18])
                    answers.append(await client.query(timeout=2.0))
                    server.datagram_received(data, ("127.0.0.1", 1))
                    for cut in (30, len(reports)):
                        await ingest(server, reports[len(server.probe_log):cut])
                        clock.now += 1.0  # expire the freshness window
                        answers.append(await client.query(timeout=2.0))
                invalid = rec.registry.counter(
                    "live.server.reports_invalid"
                ).value
            finally:
                client.close()
                server.close()
            return server, answers, invalid

        server, answers, invalid = asyncio.run(scenario())
        assert invalid == 1
        assert list(server.probe_log) == make_reports(rounds=6)
        assert [a.status for a in answers] == ["ok"] * 3
        report = verify_replay_equality(
            server.probe_log, server.answers, server.system
        )
        assert report.ok, report.describe()
        assert report.cuts == (18, 30, 36)

    def test_replay_detects_a_forged_answer(self):
        async def scenario():
            server = await start_correction_server(live_system(complete(3)))
            await ingest(server, make_reports())
            client = await start_client(server.address, 1)
            try:
                await client.query(timeout=2.0)
            finally:
                client.close()
                server.close()
            return server

        server = asyncio.run(scenario())
        [answer] = server.answers
        forged = type(answer)(
            qid=answer.qid, client=answer.client, status=answer.status,
            correction=(answer.correction or 0.0) + 1e-9,
            precision=answer.precision, cut=answer.cut,
            observations=answer.observations,
        )
        report = verify_replay_equality(
            server.probe_log, [forged], server.system
        )
        assert not report.ok
        assert report.mismatches[0].field_name == "correction"

    def test_replay_cut_matches_online_result(self):
        server = make_server()
        reports = make_reports()
        asyncio.run(ingest(server, reports))
        live = server.online.result()
        offline = replay_cut(server.probe_log, server.system)
        assert offline.corrections == live.corrections
        assert offline.precision == live.precision


class TestClusterEndToEnd:
    def test_loopback_cluster_serves_and_replays(self):
        """4 real peers + server + concurrent clients on loopback UDP."""
        async def scenario():
            cluster = LiveCluster(ClusterConfig(peers=4, interval=0.005))
            async with cluster:
                await cluster.wait_for_observations(24, timeout=15.0)
                load = await cluster.query_load(120, concurrency=6)
                replay = cluster.verify_replay()
                realized = cluster.realized()
            return load, replay, realized

        with recording(Recorder()):
            load, replay, realized = asyncio.run(scenario())
        assert load.ok_answers == 120
        assert replay.ok, replay.describe()
        assert replay.checked == 120
        # Injected offsets span 0.5s; corrected clocks must land well
        # inside that (loopback delays are microseconds).
        assert realized is not None and realized < 0.05

    def test_cluster_rejects_too_few_peers(self):
        with pytest.raises(ValueError, match="at least 2"):
            LiveCluster(ClusterConfig(peers=1))

    def test_query_datagram_via_raw_socket(self):
        """A query encoded by hand gets a well-formed answer back."""
        async def scenario():
            server = await start_correction_server(live_system(complete(3)))
            await ingest(server, make_reports())

            answers = []
            done = asyncio.get_running_loop().create_future()

            class RawClient(asyncio.DatagramProtocol):
                def connection_made(self, transport):
                    transport.sendto(
                        encode(Query(client=2, qid=7)), server.address
                    )

                def datagram_received(self, data, addr):
                    from repro.live.wire import decode

                    answers.append(decode(data))
                    if not done.done():
                        done.set_result(None)

            transport, _ = await (
                asyncio.get_running_loop().create_datagram_endpoint(
                    RawClient, local_addr=("127.0.0.1", 0)
                )
            )
            try:
                await asyncio.wait_for(done, timeout=5.0)
            finally:
                transport.close()
                server.close()
            return answers

        [answer] = asyncio.run(scenario())
        assert answer.qid == 7 and answer.client == 2
        assert answer.status == "ok"


def execution_reports(alpha):
    """One probe-log record per delivered message, in delivery order."""
    send_clock, recv_clock = {}, {}
    for view in alpha.views().values():
        for step in view.steps:
            for event in step.sends:
                send_clock[event.message.uid] = step.clock_time
            if isinstance(step.interrupt, MessageReceiveEvent):
                recv_clock[step.interrupt.message.uid] = step.clock_time
    records = sorted(
        alpha.message_records().values(),
        key=lambda r: (r.receive_real_time, r.message.uid),
    )
    return [
        Report(
            sender=r.message.sender,
            receiver=r.message.receiver,
            seq=r.message.uid,
            send_clock=send_clock[r.message.uid],
            recv_clock=recv_clock[r.message.uid],
        )
        for r in records
    ]


class TestStreamingReplayContract:
    @pytest.mark.parametrize("seed", range(10))
    def test_every_refresh_equals_batch_on_its_prefix(self, seed):
        """The live server's model on the numpy engine: each refresh of
        the incrementally repaired closure is float-equal to the batch
        pipeline over the probe log's prefix -- the replay audit's
        contract, with no tolerance."""
        scenario = lower_bound_only(
            complete(4), 0.0, 1.0, probes=6, seed=seed
        )
        system = scenario.system
        online = OnlineSynchronizer(system)
        log = ProbeLog()
        refreshes = 0
        for report in execution_reports(scenario.run()):
            log.append(report)
            if not online.observe_timestamps(
                report.sender, report.receiver,
                report.send_clock, report.recv_clock,
            ):
                continue
            streamed = online.result()
            batch = replay_cut(log, system, len(log))
            assert streamed.corrections == batch.corrections
            assert streamed.precision == batch.precision
            refreshes += 1
        assert refreshes > 0
        counters = online.synchronizer.engine.stats.counters
        assert counters.get("incremental_update.calls", 0) > 0
