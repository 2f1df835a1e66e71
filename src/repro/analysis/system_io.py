"""Serialization of systems ``(G, A)`` to/from JSON.

Together with :mod:`repro.analysis.trace` this makes a complete archived
unit of work: a system file plus a trace file fully determine a
synchronization run, so results can be reproduced, shared and diffed
(see the ``sync-trace`` CLI subcommand).

All stock assumption types are supported: :class:`BoundedDelay`,
:class:`RoundTripBias`, :class:`RoundTripBiasUnsigned` and arbitrary
:class:`Composite` nestings of them.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Mapping, Union

from repro._types import INF
from repro.delays.base import DelayAssumption
from repro.delays.bias import RoundTripBias, RoundTripBiasUnsigned
from repro.delays.bounds import BoundedDelay
from repro.delays.composite import Composite
from repro.delays.system import System
from repro.graphs.topology import Topology
from repro.records import read_document, write_atomic


class SystemIOError(ValueError):
    """The system cannot be (de)serialized."""


#: Format version; bump on any incompatible change.
SYSTEM_IO_VERSION = 1


def _encode_bound(value: float) -> Any:
    return "inf" if value == INF else value


def _decode_bound(value: Any) -> float:
    return INF if value == "inf" else float(value)


def assumption_to_dict(assumption: DelayAssumption) -> Dict[str, Any]:
    """One assumption as a JSON-compatible tagged dict."""
    if isinstance(assumption, BoundedDelay):
        return {
            "kind": "bounded",
            "lb_forward": assumption.lb_forward,
            "ub_forward": _encode_bound(assumption.ub_forward),
            "lb_reverse": assumption.lb_reverse,
            "ub_reverse": _encode_bound(assumption.ub_reverse),
        }
    if isinstance(assumption, RoundTripBias):
        return {"kind": "bias", "bias": assumption.bias}
    if isinstance(assumption, RoundTripBiasUnsigned):
        return {"kind": "bias_unsigned", "bias": assumption.bias}
    if isinstance(assumption, Composite):
        return {
            "kind": "composite",
            "components": [
                assumption_to_dict(c) for c in assumption.components
            ],
        }
    raise SystemIOError(
        f"assumption type {type(assumption).__name__} is not serializable"
    )


def assumption_from_dict(data: Mapping[str, Any]) -> DelayAssumption:
    """Rebuild an assumption from its tagged dict."""
    kind = data.get("kind")
    if kind == "bounded":
        return BoundedDelay(
            lb_forward=float(data["lb_forward"]),
            ub_forward=_decode_bound(data["ub_forward"]),
            lb_reverse=float(data["lb_reverse"]),
            ub_reverse=_decode_bound(data["ub_reverse"]),
        )
    if kind == "bias":
        return RoundTripBias(bias=float(data["bias"]))
    if kind == "bias_unsigned":
        return RoundTripBiasUnsigned(bias=float(data["bias"]))
    if kind == "composite":
        return Composite.of(
            *(assumption_from_dict(c) for c in data["components"])
        )
    raise SystemIOError(f"unknown assumption kind {kind!r}")


def system_to_dict(system: System) -> Dict[str, Any]:
    """The full ``(G, A)`` as a JSON-compatible dict.

    Processor ids must themselves be JSON-encodable scalars (ints or
    strings) -- the natural choice for portable system descriptions.
    """
    for node in system.topology.nodes:
        if not isinstance(node, (int, str)):
            raise SystemIOError(
                f"processor id {node!r} is not JSON-portable; use ints or "
                f"strings in serialized systems"
            )
    return {
        "version": SYSTEM_IO_VERSION,
        "name": system.topology.name,
        "nodes": list(system.topology.nodes),
        "links": [
            {
                "p": p,
                "q": q,
                "assumption": assumption_to_dict(system.assumptions[(p, q)]),
            }
            for (p, q) in system.topology.links
        ],
    }


def system_from_dict(data: Mapping[str, Any]) -> System:
    """Rebuild a system; validates topology and version."""
    if data.get("version") != SYSTEM_IO_VERSION:
        raise SystemIOError(
            f"system version {data.get('version')!r} unsupported "
            f"(expected {SYSTEM_IO_VERSION})"
        )
    links = tuple((entry["p"], entry["q"]) for entry in data["links"])
    topology = Topology(
        name=data.get("name", "loaded-system"),
        nodes=tuple(data["nodes"]),
        links=links,
    )
    assumptions = {
        (entry["p"], entry["q"]): assumption_from_dict(entry["assumption"])
        for entry in data["links"]
    }
    return System(topology=topology, assumptions=assumptions)


def save_system(system: System, path: Union[str, Path]) -> None:
    """Write the system as JSON to ``path``."""
    write_atomic(path, json.dumps(system_to_dict(system), indent=1, sort_keys=True))


def load_system(path: Union[str, Path]) -> System:
    """Read a system back from JSON written by :func:`save_system`."""
    return system_from_dict(read_document(path))


__all__ = [
    "SystemIOError",
    "SYSTEM_IO_VERSION",
    "assumption_to_dict",
    "assumption_from_dict",
    "system_to_dict",
    "system_from_dict",
    "save_system",
    "load_system",
]
