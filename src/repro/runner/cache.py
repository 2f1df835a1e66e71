"""Content-addressed result cache for campaign cells.

Repeated sweeps and resumed campaigns skip already-solved cells: a
cell's result is stored under a sha256 digest of *what determines the
result* -- the full system ``(G, A)`` (via the canonical
:func:`~repro.analysis.system_io.system_to_dict` encoding), the per-link
sampler specifications, the start times, the scenario name, the seed and
the certification option.  Identical inputs hash
identically across processes and sessions, so a cache directory shared
between shard runners or CI jobs deduplicates work with no coordination.

Cells whose scenarios cannot be digested (non-JSON-portable processor
ids, samplers with value-free ``repr``) are simply not cached -- the
cache degrades to a no-op rather than guessing at identity.  Custom
builders should encode any parameter that is *not* visible in the
system/samplers/start-times into the scenario ``name``, which is part
of the key.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.analysis.system_io import SystemIOError, system_to_dict
from repro.obs.log import get_logger
from repro.records import write_atomic
from repro.runner.cells import CellResult, CellTask

log = get_logger("repro.runner.cache")

#: Bump on any change to the key derivation or the stored record shape.
#: 2: fault plans became part of the cell identity (``faults`` key).
#: 3: cell records carry the ``degraded`` flag.
#: 4: the ``backend`` key was dropped (one engine at every size).
CACHE_VERSION = 4


def cell_cache_key(task: CellTask) -> Optional[str]:
    """The cell's content digest, or ``None`` when it is not cacheable.

    Builds the scenario (cheap: constructors only, no simulation) and
    digests everything the result is a deterministic function of.  A
    builder that raises makes the cell uncacheable: executing it then
    reports the error under the run's quarantine policy.
    """
    try:
        scenario = task.build(task.spec.topology, task.spec.seed)
    except Exception:
        return None
    try:
        system = system_to_dict(scenario.system)
    except SystemIOError:
        return None
    samplers = {
        repr(link): repr(sampler)
        for link, sampler in scenario.samplers.items()
    }
    start_times = {
        repr(p): t for p, t in scenario.start_times.items()
    }
    payload: Dict[str, Any] = {
        "version": CACHE_VERSION,
        "system": system,
        "samplers": samplers,
        "start_times": start_times,
        "automata": len(scenario.automata),
        "scenario": scenario.name,
        "builder": task.spec.builder,
        "seed": task.spec.seed,
        "certify": task.certify,
        # The scenario name already encodes the plan's name+seed (see
        # Scenario.with_faults), but the full serialized plan makes two
        # distinct plans with the same label hash differently.
        "faults": (
            scenario.faults.to_json() if scenario.faults is not None else None
        ),
    }
    encoded = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


class ResultCache:
    """Directory of ``<digest>.json`` cell results.

    :attr:`corrupt_entries` distinguishes *corruption* (an entry file
    exists but cannot be parsed back into a cell result -- truncated
    write, bit rot, concurrent writer) from an ordinary cold-cache miss
    or a deliberate format-version bump, both of which stay silent.

    ``max_entries`` bounds the directory: when a :meth:`put` would
    exceed it, the least-recently-*used* entries (by file mtime -- hits
    touch their entry, so a long-lived cache shared across resumed
    shards keeps its hot set) are evicted and counted on
    :attr:`evicted_entries`.  ``None`` (the default) leaves the cache
    unbounded, exactly as before.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        max_entries: Optional[int] = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(
                f"max_entries must be >= 1 or None, got {max_entries}"
            )
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        self._corrupt_entries = 0
        self._evicted_entries = 0
        self._max_entries = max_entries

    @property
    def directory(self) -> Path:
        return self._directory

    @property
    def max_entries(self) -> Optional[int]:
        return self._max_entries

    @property
    def corrupt_entries(self) -> int:
        """Entries that existed but failed to parse, since construction."""
        return self._corrupt_entries

    @property
    def evicted_entries(self) -> int:
        """Entries removed by the LRU bound, since construction."""
        return self._evicted_entries

    def _path(self, key: str) -> Path:
        return self._directory / f"{key}.json"

    def get(self, key: Optional[str]) -> Optional[CellResult]:
        """The cached result for ``key``, marked ``cache_hit``, or ``None``.

        Unreadable or stale-format entries are treated as misses (and
        recomputed), never as errors -- a cache must not be able to fail
        a campaign.  A *corrupt* entry (present but unparseable) is
        additionally counted on :attr:`corrupt_entries` and logged, so
        disk-level problems do not masquerade as cold caches.
        """
        if key is None:
            return None
        path = self._path(key)
        if not path.exists():
            return None
        try:
            record = json.loads(path.read_text())
            if not isinstance(record, dict):
                raise ValueError("not a record")
            if record.get("version") != CACHE_VERSION:
                # A clean version mismatch is a deliberate format
                # change, not corruption: plain miss.
                return None
            cell = CellResult.from_json(record["cell"]).as_cache_hit()
        except (ValueError, OSError, KeyError, TypeError) as exc:
            self._corrupt_entries += 1
            log.warning(
                "cache.corrupt_entry",
                path=str(path),
                reason=str(exc),
                action="treated_as_miss",
            )
            return None
        self._touch(path)
        return cell

    def put(self, key: Optional[str], result: CellResult) -> None:
        """Store ``result`` under ``key`` (no-op for uncacheable cells)."""
        if key is None:
            return
        record = {
            "version": CACHE_VERSION,
            "key": key,
            "cell": result.to_json(),
        }
        # Atomic: a crash mid-put leaves the previous entry (or none),
        # never a torn one that would count as corruption.
        write_atomic(self._path(key), json.dumps(record, sort_keys=True))
        if self._max_entries is not None:
            self._evict_to_bound()

    @staticmethod
    def _touch(path: Path) -> None:
        """Refresh the entry's mtime (it is the LRU recency signal)."""
        try:
            os.utime(path)
        except OSError:
            pass  # recency update is best-effort; the hit still counts

    def _evict_to_bound(self) -> None:
        """Drop least-recently-used entries until the bound holds."""
        entries = []
        for path in self._directory.glob("*.json"):
            try:
                entries.append((path.stat().st_mtime, str(path), path))
            except OSError:
                continue  # vanished under a concurrent writer
        excess = len(entries) - self._max_entries
        if excess <= 0:
            return
        entries.sort()  # oldest mtime first; path string breaks ties
        for _, _, path in entries[:excess]:
            try:
                path.unlink()
            except OSError:
                continue
            self._evicted_entries += 1

    def __len__(self) -> int:
        return sum(1 for _ in self._directory.glob("*.json"))


__all__ = ["CACHE_VERSION", "ResultCache", "cell_cache_key"]
