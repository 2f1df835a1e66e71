"""Open-loop UDP query generator paced by ``select()``.

Queries are due at fixed instants ``start + i / rate`` whatever the
server does, so a stall shows up as queueing rather than as fewer
queries.  Each query's latency runs from its *due* time to the moment
its answer is read, and the generator reports how late it sent each
query, so its own slowness is visible rather than folded into the
server's numbers.

The loop is synchronous on purpose: ``select()`` sleeps with microsecond
resolution, where asyncio's epoll loop rounds its timeouts to whole
milliseconds and would add that rounding to every latency.
"""

from __future__ import annotations

import select
import socket
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.live.wire import Correction, Query, WireError, decode, encode

Address = Tuple[str, int]


@dataclass
class LoadReport:
    """What one open-loop run observed."""

    sent: int = 0
    #: seconds from due time to answer, one per answered query.
    latencies: List[float] = field(default_factory=list)
    #: seconds the generator sent each query after it was due.
    lateness: List[float] = field(default_factory=list)
    answers: List[Correction] = field(default_factory=list)
    timeouts: int = 0
    #: answered queries whose status was not ``ok``.
    not_ok: int = 0
    wall: float = 0.0

    @property
    def failed(self) -> int:
        return self.timeouts + self.not_ok


def run_open_loop(
    address: Address,
    clients: Sequence[object],
    *,
    rate: float,
    duration: float,
    sockets: int,
    timeout: float,
) -> LoadReport:
    """Send ``rate * duration`` queries to ``address``; no retries.

    Query ``i`` asks for the correction of ``clients[i % len(clients)]``
    from socket ``i % sockets``.  A query unanswered ``timeout`` seconds
    after it was due counts as a timeout; an answer arriving later is
    ignored.
    """
    total = int(round(rate * duration))
    interval = 1.0 / rate
    report = LoadReport()
    socks = []
    try:
        for _ in range(sockets):
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.bind(("127.0.0.1", 0))
            sock.setblocking(False)
            socks.append(sock)
        outstanding: "OrderedDict[int, float]" = OrderedDict()
        clock = time.perf_counter
        start = clock()
        sent = 0
        while sent < total or outstanding:
            now = clock()
            while sent < total and start + sent * interval <= now:
                due = start + sent * interval
                query = Query(client=clients[sent % len(clients)], qid=sent)
                socks[sent % sockets].sendto(encode(query), address)
                outstanding[sent] = due
                report.lateness.append(clock() - due)
                sent += 1
            while outstanding:
                qid, due = next(iter(outstanding.items()))
                if now - due < timeout:
                    break
                del outstanding[qid]
                report.timeouts += 1
            wait = timeout
            if sent < total:
                wait = min(wait, start + sent * interval - now)
            if outstanding:
                wait = min(wait, next(iter(outstanding.values())) + timeout - now)
            readable, _, _ = select.select(socks, [], [], max(wait, 0.0))
            for sock in readable:
                _drain(sock, outstanding, report, clock)
        report.wall = clock() - start
        report.sent = sent
    finally:
        for sock in socks:
            sock.close()
    return report


def _drain(sock, outstanding: Dict[int, float], report: LoadReport, clock):
    while True:
        try:
            data = sock.recv(65536)
        except BlockingIOError:
            return
        received = clock()
        try:
            answer = decode(data)
        except WireError:
            continue
        if not isinstance(answer, Correction):
            continue
        due = outstanding.pop(answer.qid, None)
        if due is None:  # answered after its timeout: already counted
            continue
        report.latencies.append(received - due)
        report.answers.append(answer)
        if answer.status != "ok":
            report.not_ok += 1


__all__ = ["LoadReport", "run_open_loop"]
