"""Metrics registry: counters, gauges and histograms.

The registry is the single store for numeric telemetry across the
simulator, the synchronization pipeline and the matrix engines.  Three
instrument kinds cover everything the repo measures:

* :class:`Counter` -- monotonically non-decreasing totals (events
  processed, messages delivered, engine stage seconds);
* :class:`Gauge` -- last-value-wins readings (precision ``A^max``,
  correction spread, peak queue depth);
* :class:`Histogram` -- distributions over *fixed* bucket boundaries
  chosen at creation time (queue depths, per-stage latencies).

Design rules, enforced here:

* **No wall-clock or RNG in the data path.**  ``add``/``set``/``observe``
  touch only the caller-supplied value; timestamps belong to the span
  layer (:mod:`repro.obs.spans`), and bucket boundaries are fixed up
  front so an observation is a bisect plus an increment.
* **Thread-safe.**  Every instrument serializes updates behind its own
  lock, so engines running on worker threads (or a future parallel
  backend) can share a registry without torn reads.
* **Get-or-create.**  :meth:`MetricsRegistry.counter` and friends return
  the existing instrument when the name is already registered and raise
  on a kind mismatch, so independent modules can reference the same
  series without coordination.
"""

from __future__ import annotations

import bisect
import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

Instrument = Union["Counter", "Gauge", "Histogram"]

#: Default histogram boundaries (seconds-flavoured, Prometheus-style).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Counter:
    """A monotonically non-decreasing total."""

    kind = "counter"
    __slots__ = ("name", "description", "_lock", "_value")

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self._lock = threading.Lock()
        self._value = 0.0

    def add(self, amount: float = 1.0) -> None:
        """Increase the counter; negative amounts are a logic error."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        with self._lock:
            self._value += amount

    inc = add

    @property
    def value(self) -> float:
        return self._value

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self._value!r})"


class Gauge:
    """A last-value-wins reading."""

    kind = "gauge"
    __slots__ = ("name", "description", "_lock", "_value")

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, value={self._value!r})"


class Histogram:
    """A distribution over fixed, ascending bucket boundaries.

    ``boundaries[i]`` is the *inclusive* upper edge of bucket ``i``
    (Prometheus ``le`` semantics); one implicit ``+Inf`` bucket catches
    the rest.  Counts are stored per-bucket and cumulated only at export
    time, so ``observe`` is a bisect plus two additions.
    """

    kind = "histogram"
    __slots__ = (
        "name", "description", "boundaries", "_lock",
        "_bucket_counts", "_sum", "_count",
    )

    def __init__(
        self,
        name: str,
        boundaries: Sequence[float] = DEFAULT_BUCKETS,
        description: str = "",
    ) -> None:
        bounds = tuple(float(b) for b in boundaries)
        if not bounds:
            raise ValueError(f"histogram {name!r} needs at least one bucket")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(
                f"histogram {name!r} boundaries must be strictly ascending: "
                f"{bounds}"
            )
        if any(b != b or b in (float("inf"), float("-inf")) for b in bounds):
            raise ValueError(
                f"histogram {name!r} boundaries must be finite (the +Inf "
                f"bucket is implicit)"
            )
        self.name = name
        self.description = description
        self.boundaries = bounds
        self._lock = threading.Lock()
        self._bucket_counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        """Record one sample (``value <= boundary`` lands in that bucket)."""
        index = bisect.bisect_left(self.boundaries, value)
        with self._lock:
            self._bucket_counts[index] += 1
            self._sum += value
            self._count += 1

    def observe_many(self, values: Iterable[float]) -> None:
        """Record ``values`` in order under one lock.

        The same buckets, count and ``sum`` (added left to right, so
        bit-equal) as one :meth:`observe` per value.  A value that cannot
        be bucketed raises before anything is recorded.
        """
        boundaries = self.boundaries
        with self._lock:
            counts = list(self._bucket_counts)
            total = self._sum
            n = 0
            for value in values:
                counts[bisect.bisect_left(boundaries, value)] += 1
                total += value
                n += 1
            self._bucket_counts = counts
            self._sum = total
            self._count += n

    @property
    def bucket_counts(self) -> Tuple[int, ...]:
        """Per-bucket (non-cumulative) counts; the last entry is +Inf."""
        with self._lock:
            return tuple(self._bucket_counts)

    def cumulative_counts(self) -> Tuple[int, ...]:
        """Prometheus-style cumulative counts, one per boundary plus +Inf."""
        out: List[int] = []
        running = 0
        for count in self.bucket_counts:
            running += count
            out.append(running)
        return tuple(out)

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def count(self) -> int:
        return self._count

    def __repr__(self) -> str:
        return (
            f"Histogram({self.name!r}, count={self._count}, "
            f"sum={self._sum!r})"
        )


class MetricsRegistry:
    """Thread-safe, get-or-create store of named instruments."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, Instrument] = {}

    # -- creation ------------------------------------------------------

    def counter(self, name: str, description: str = "") -> Counter:
        return self._get_or_create(Counter, name, description)

    def gauge(self, name: str, description: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, description)

    def histogram(
        self,
        name: str,
        boundaries: Optional[Sequence[float]] = None,
        description: str = "",
    ) -> Histogram:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, Histogram):
                    raise ValueError(
                        f"metric {name!r} is a {existing.kind}, "
                        f"not a histogram"
                    )
                if boundaries is not None and tuple(
                    float(b) for b in boundaries
                ) != existing.boundaries:
                    raise ValueError(
                        f"histogram {name!r} already registered with "
                        f"boundaries {existing.boundaries}"
                    )
                return existing
            instrument = Histogram(
                name, boundaries or DEFAULT_BUCKETS, description
            )
            self._instruments[name] = instrument
            return instrument

    def _get_or_create(self, cls, name: str, description: str):
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} is a {existing.kind}, "
                        f"not a {cls.kind}"
                    )
                return existing
            instrument = cls(name, description)
            self._instruments[name] = instrument
            return instrument

    # -- introspection -------------------------------------------------

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._instruments)

    def get(self, name: str) -> Optional[Instrument]:
        with self._lock:
            return self._instruments.get(name)

    def instruments(self) -> List[Instrument]:
        """All instruments, sorted by name (a snapshot list)."""
        with self._lock:
            return [self._instruments[k] for k in sorted(self._instruments)]

    def counters(self, prefix: str = "") -> Dict[str, float]:
        """Counter values whose name starts with ``prefix``."""
        return {
            i.name: i.value
            for i in self.instruments()
            if isinstance(i, Counter) and i.name.startswith(prefix)
        }

    def snapshot(self) -> Dict[str, dict]:
        """Plain-data dump of every instrument (for JSON serialization)."""
        out: Dict[str, dict] = {}
        for instrument in self.instruments():
            if isinstance(instrument, Histogram):
                out[instrument.name] = {
                    "type": "histogram",
                    "boundaries": list(instrument.boundaries),
                    "counts": list(instrument.bucket_counts),
                    "sum": instrument.sum,
                    "count": instrument.count,
                }
            else:
                out[instrument.name] = {
                    "type": instrument.kind,
                    "value": instrument.value,
                }
        return out

    # -- aggregation ---------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other``'s instruments into this registry.

        Counters and histograms add; gauges take ``other``'s reading
        (last-value-wins, matching their semantics).  Histogram bucket
        boundaries must agree.  Used to aggregate per-engine stats into a
        campaign-level registry; merging a registry into itself is a
        logic error (it would double every counter).
        """
        if other is self:
            raise ValueError("cannot merge a registry into itself")
        for instrument in other.instruments():
            if isinstance(instrument, Counter):
                self.counter(instrument.name, instrument.description).add(
                    instrument.value
                )
            elif isinstance(instrument, Gauge):
                self.gauge(instrument.name, instrument.description).set(
                    instrument.value
                )
            else:
                mine = self.histogram(
                    instrument.name,
                    instrument.boundaries,
                    instrument.description,
                )
                counts = instrument.bucket_counts
                with mine._lock:
                    for i, count in enumerate(counts):
                        mine._bucket_counts[i] += count
                    mine._sum += instrument.sum
                    mine._count += instrument.count

    def merge_snapshot(self, snapshot: Dict[str, dict]) -> None:
        """Fold one :meth:`snapshot` dict directly into this registry.

        The incremental counterpart of ``merge(registry_from_snapshot(s))``
        without materializing the intermediate registry -- the streaming
        campaign runner and the shard merge pipeline fold thousands of
        per-cell snapshots read off disk through this path.  Same
        semantics as :meth:`merge`: counters and histograms add, gauges
        take the snapshot's reading.
        """
        for name, data in snapshot.items():
            kind = data.get("type")
            if kind == "counter":
                self.counter(name).add(float(data["value"]))
            elif kind == "gauge":
                self.gauge(name).set(float(data["value"]))
            elif kind == "histogram":
                histogram = self.histogram(name, data["boundaries"])
                counts = [int(c) for c in data["counts"]]
                if len(counts) != len(histogram.boundaries) + 1:
                    raise ValueError(
                        f"histogram {name!r} snapshot has {len(counts)} "
                        f"bucket counts for {len(histogram.boundaries)} "
                        f"boundaries"
                    )
                with histogram._lock:
                    for i, count in enumerate(counts):
                        histogram._bucket_counts[i] += count
                    histogram._sum += float(data["sum"])
                    histogram._count += int(data["count"])
            else:
                raise ValueError(
                    f"unknown instrument type {kind!r} for {name!r}"
                )

    def reset(self, prefix: str = "") -> None:
        """Drop every instrument whose name starts with ``prefix``."""
        with self._lock:
            for name in [
                n for n in self._instruments if n.startswith(prefix)
            ]:
                del self._instruments[name]

    def __len__(self) -> int:
        with self._lock:
            return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._instruments

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self)} instruments)"


def merge_all(registries: Iterable[MetricsRegistry]) -> MetricsRegistry:
    """Fresh registry holding the sum of ``registries``."""
    total = MetricsRegistry()
    for registry in registries:
        total.merge(registry)
    return total


def registry_from_snapshot(snapshot: Dict[str, dict]) -> MetricsRegistry:
    """Rebuild a registry from :meth:`MetricsRegistry.snapshot` data.

    The inverse of :meth:`MetricsRegistry.snapshot`, up to instrument
    descriptions (which snapshots do not carry).  This is the bridge the
    parallel campaign runner uses to ship metrics across process
    boundaries: instruments hold locks and are not picklable, but their
    snapshots are plain data, so workers return snapshots and the parent
    rebuilds registries and folds them together with :meth:`merge`.
    """
    registry = MetricsRegistry()
    registry.merge_snapshot(snapshot)
    return registry


__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "merge_all",
    "registry_from_snapshot",
]
