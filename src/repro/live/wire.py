"""Datagram wire format of the live runtime (DESIGN.md section 14).

One UDP datagram carries one JSON object.  Every payload is versioned
(``v``) and carries a CRC-32 of its canonical encoding, so a torn,
truncated or bit-flipped datagram is *detected and dropped* instead of
poisoning a peer's statistics -- the live analogue of the PR 5
screening path: transport faults degrade coverage, never correctness.

Six message kinds are defined.  Peers and the server exchange
``probe`` and ``report`` bodies only inside ``seg`` frames; a bare one
is rejected on arrival.

* ``probe`` -- a peer's timestamped beacon: ``sender`` read its clock
  at ``send_clock`` and sent sequence number ``seq``.  The receiver
  pairs it with its own clock reading, which is exactly the estimated
  delay ``d~ = recv_clock - send_clock`` of Lemma 6.1.
* ``report`` -- a completed observation (both clock reads) forwarded
  by the receiving peer to the correction server.
* ``query`` -- a client asking "what is my correction now?".
* ``correction`` -- the server's answer, carrying the correction, the
  certified precision ``A^max``, and the *cut* (number of admitted
  observations the answer was computed from) that makes the answer
  replayable offline (see :mod:`repro.live.replay`).
* ``seg`` / ``segack`` -- the reliable-transport framing of
  :mod:`repro.transport`: a ``seg`` wraps one inner ``probe`` or
  ``report`` body with a per-``(src, dst)`` sequence number, and a
  ``segack`` carries the receiver's cumulative + selective
  acknowledgement.  The outer CRC covers the inner body, so a torn
  segment is dropped whole (and the transport retransmits it).

Processor and client identifiers must be JSON-scalar (strings or ints)
on the wire; the rest of the repo's "any hashable" freedom does not
survive serialization.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from typing import Optional, Tuple, Union

from repro._types import Time

#: Wire protocol version; decoding rejects any other value.
WIRE_VERSION = 1

#: Conservative upper bound on an encoded datagram (well under typical
#: loopback/LAN MTUs, so no fragmentation on the paths we target).
MAX_DATAGRAM_BYTES = 1024

WireId = Union[str, int]


class WireError(ValueError):
    """A datagram failed to decode: torn, corrupt, or wrong version."""


@dataclass(frozen=True)
class Probe:
    """A timestamped beacon from ``sender`` (clock read at send time)."""

    sender: WireId
    seq: int
    send_clock: Time


@dataclass(frozen=True)
class Report:
    """One completed observation: both endpoint clock reads of a probe."""

    sender: WireId
    receiver: WireId
    seq: int
    send_clock: Time
    recv_clock: Time

    @property
    def estimated_delay(self) -> Time:
        """``d~ = recv_clock - send_clock`` (Lemma 6.1)."""
        return self.recv_clock - self.send_clock


@dataclass(frozen=True)
class Query:
    """A client's correction request; ``qid`` correlates the answer."""

    client: WireId
    qid: int


@dataclass(frozen=True)
class Correction:
    """The server's answer to one :class:`Query`.

    ``status`` is ``"ok"`` when a certified result was available,
    ``"pending"`` while the server has not yet accumulated enough
    traffic for a finite precision, and ``"unknown"`` when ``client``
    is not a processor of the served system.  ``cut`` is the number of
    admitted observations the answer was computed from -- the replay
    coordinate of the live==offline equality contract.
    """

    qid: int
    client: WireId
    status: str
    correction: Optional[Time]
    precision: Optional[Time]
    cut: int
    observations: int


@dataclass(frozen=True)
class Seg:
    """One reliable-transport data segment wrapping an inner message.

    ``seq`` numbers the ``(src, dst)`` channel; ``inner`` is the framed
    application message (a :class:`Probe` or :class:`Report`).
    """

    src: WireId
    dst: WireId
    seq: int
    inner: Union[Probe, Report]


@dataclass(frozen=True)
class SegAck:
    """Transport acknowledgement: cumulative ``cum`` plus SACK set."""

    src: WireId
    dst: WireId
    cum: int
    sacks: Tuple[int, ...] = ()


_KINDS = {
    "probe": Probe,
    "report": Report,
    "query": Query,
    "correction": Correction,
    "seg": Seg,
    "segack": SegAck,
}
_FIELDS = {
    "probe": ("sender", "seq", "send_clock"),
    "report": ("sender", "receiver", "seq", "send_clock", "recv_clock"),
    "query": ("client", "qid"),
    "correction": (
        "qid", "client", "status", "correction", "precision", "cut",
        "observations",
    ),
    "seg": ("src", "dst", "seq", "inner"),
    "segack": ("src", "dst", "cum", "sacks"),
}

#: Message kinds a ``seg`` may carry (the transport frames app traffic,
#: not other transport frames or query/answer messages -- those have
#: their own app-level retry).
_INNER_KINDS = ("probe", "report")


def _canonical(payload: dict) -> bytes:
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=True
    ).encode("utf-8")


def _encode(kind: str, payload: dict) -> bytes:
    body = dict(payload)
    body["kind"] = kind
    body["v"] = WIRE_VERSION
    body["crc"] = zlib.crc32(_canonical(body))
    data = _canonical(body)
    if len(data) > MAX_DATAGRAM_BYTES:
        raise WireError(
            f"{kind} datagram is {len(data)} bytes "
            f"(limit {MAX_DATAGRAM_BYTES}); identifiers too long?"
        )
    return data


def _inner_body(message: Union[Probe, Report]) -> dict:
    """The versionless body of a message framed inside a ``seg``."""
    for kind in _INNER_KINDS:
        if isinstance(message, _KINDS[kind]):
            body = {name: getattr(message, name) for name in _FIELDS[kind]}
            body["kind"] = kind
            return body
    raise TypeError(f"cannot frame {message!r} inside a segment")


def _parse_inner(data: object) -> Union[Probe, Report]:
    """Parse a ``seg`` inner body; raise :class:`WireError` on defects."""
    if not isinstance(data, dict):
        raise WireError(f"segment inner is not an object: {data!r}")
    kind = data.get("kind")
    if kind not in _INNER_KINDS:
        raise WireError(f"segment cannot carry kind {kind!r}")
    fields = _FIELDS[kind]
    try:
        kwargs = {name: data[name] for name in fields}
    except KeyError as exc:
        raise WireError(f"segment inner missing field {exc}") from None
    extra = set(data) - set(fields) - {"kind"}
    if extra:
        raise WireError(f"segment inner has stray fields {sorted(extra)}")
    try:
        return _KINDS[kind](**kwargs)
    except (TypeError, ValueError) as exc:
        raise WireError(f"malformed segment inner: {exc}") from None


def encode(
    message: Union[Probe, Report, Query, Correction, Seg, SegAck]
) -> bytes:
    """Serialize one wire message to a single datagram."""
    for kind, cls in _KINDS.items():
        if isinstance(message, cls):
            payload = {
                name: getattr(message, name) for name in _FIELDS[kind]
            }
            if kind == "seg":
                payload["inner"] = _inner_body(message.inner)
            elif kind == "segack":
                payload["sacks"] = list(message.sacks)
            return _encode(kind, payload)
    raise TypeError(f"not a wire message: {message!r}")


def decode(
    data: bytes,
) -> Union[Probe, Report, Query, Correction, Seg, SegAck]:
    """Parse one datagram; raise :class:`WireError` on any defect.

    Rejects non-JSON / truncated bytes, unknown kinds, missing fields,
    wrong protocol versions, and CRC mismatches (a torn datagram whose
    prefix still parses as JSON).  Never raises anything else -- peers
    route every :class:`WireError` to a drop counter.
    """
    try:
        body = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"undecodable datagram: {exc}") from None
    if not isinstance(body, dict):
        raise WireError(f"datagram is not an object: {body!r}")
    version = body.get("v")
    if version != WIRE_VERSION:
        raise WireError(f"unsupported wire version {version!r}")
    kind = body.get("kind")
    if kind not in _KINDS:
        raise WireError(f"unknown message kind {kind!r}")
    crc = body.pop("crc", None)
    if crc != zlib.crc32(_canonical(body)):
        raise WireError(f"checksum mismatch on {kind} datagram")
    fields = _FIELDS[kind]
    try:
        kwargs = {name: body[name] for name in fields}
    except KeyError as exc:
        raise WireError(f"{kind} datagram missing field {exc}") from None
    extra = set(body) - set(fields) - {"kind", "v"}
    if extra:
        raise WireError(f"{kind} datagram has stray fields {sorted(extra)}")
    if kind == "seg":
        kwargs["inner"] = _parse_inner(kwargs["inner"])
    elif kind == "segack":
        sacks = kwargs["sacks"]
        if not isinstance(sacks, list) or not all(
            isinstance(s, int) for s in sacks
        ):
            raise WireError(f"segack sacks must be a list of ints: {sacks!r}")
        kwargs["sacks"] = tuple(sacks)
    try:
        return _KINDS[kind](**kwargs)
    except (TypeError, ValueError) as exc:
        raise WireError(f"malformed {kind} datagram: {exc}") from None


__all__ = [
    "MAX_DATAGRAM_BYTES",
    "WIRE_VERSION",
    "Correction",
    "Probe",
    "Query",
    "Report",
    "Seg",
    "SegAck",
    "WireError",
    "decode",
    "encode",
]
