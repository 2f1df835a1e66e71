"""Human-readable profile reports from recorded spans and metrics.

Backs ``repro-clocksync profile``: aggregates the flat span list into a
call tree keyed by span-name *path* (so ten ``engine.shifts`` spans
under ``pipeline.sync`` fold into one line with ``calls=10``), renders
it indented, and tabulates the top stages by self time -- the first
place to look before optimizing anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.reporting import Table
from repro.obs.spans import Span


@dataclass
class SpanNode:
    """Aggregate of every span sharing one root-to-leaf name path."""

    path: Tuple[str, ...]
    calls: int = 0
    total: float = 0.0
    child_time: float = 0.0
    children: Dict[str, "SpanNode"] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.path[-1] if self.path else "<root>"

    @property
    def self_time(self) -> float:
        """Time spent in this node excluding its aggregated children."""
        return max(self.total - self.child_time, 0.0)


def aggregate_spans(spans: Sequence[Span]) -> SpanNode:
    """Fold spans into a path-keyed tree; returns the synthetic root."""
    by_id = {span.span_id: span for span in spans}
    paths: Dict[int, Tuple[str, ...]] = {}

    def path_of(span: Span) -> Tuple[str, ...]:
        cached = paths.get(span.span_id)
        if cached is not None:
            return cached
        parent = by_id.get(span.parent_id) if span.parent_id else None
        prefix = path_of(parent) if parent is not None else ()
        result = prefix + (span.name,)
        paths[span.span_id] = result
        return result

    root = SpanNode(path=())
    for span in spans:
        node = root
        for name in path_of(span):
            node = node.children.setdefault(
                name, SpanNode(path=node.path + (name,))
            )
        node.calls += 1
        node.total += span.duration
        parent_span = by_id.get(span.parent_id) if span.parent_id else None
        if parent_span is not None:
            parent_node = root
            for name in path_of(parent_span):
                parent_node = parent_node.children[name]
            parent_node.child_time += span.duration
    # Top-level totals roll up into the synthetic root for percentages.
    root.total = sum(c.total for c in root.children.values())
    return root


def format_span_tree(
    spans: Sequence[Span], min_share: float = 0.0
) -> str:
    """Indented call-tree rendering, siblings sorted by total time.

    ``min_share`` prunes nodes below that fraction of the overall total
    (0.01 = hide anything under 1%).
    """
    root = aggregate_spans(spans)
    if not root.children:
        return "(no spans recorded)"
    overall = root.total or 1.0
    lines: List[str] = []

    def walk(node: SpanNode, depth: int) -> None:
        share = node.total / overall
        if node.path and share < min_share:
            return
        if node.path:
            lines.append(
                f"{'  ' * (depth - 1)}{node.name:<{max(40 - 2 * (depth - 1), 8)}}"
                f" calls={node.calls:<6d} total={node.total * 1e3:9.3f} ms"
                f"  self={node.self_time * 1e3:9.3f} ms"
                f"  ({share:6.1%})"
            )
        for child in sorted(
            node.children.values(), key=lambda c: c.total, reverse=True
        ):
            walk(child, depth + 1)

    walk(root, 0)
    return "\n".join(lines)


def _flatten(root: SpanNode) -> List[SpanNode]:
    out: List[SpanNode] = []
    stack = list(root.children.values())
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(node.children.values())
    return out


def top_stages_table(spans: Sequence[Span], limit: int = 10):
    """The ``limit`` hottest stages by self time, as a printable table."""
    root = aggregate_spans(spans)
    overall = root.total or 1.0
    nodes = sorted(_flatten(root), key=lambda n: n.self_time, reverse=True)
    table = Table(
        title=f"top stages by self time (of {overall:.4f}s traced)",
        headers=["stage", "calls", "total (ms)", "self (ms)", "share"],
    )
    for node in nodes[:limit]:
        table.add_row(
            " > ".join(node.path),
            node.calls,
            node.total * 1e3,
            node.self_time * 1e3,
            f"{node.self_time / overall:.1%}",
        )
    table.add_note(
        "share = self time / total traced time; nested spans are folded "
        "by name path"
    )
    return table


def quantile(histogram, q: float) -> float:
    """Bucket-interpolated quantile estimate of a fixed-bucket histogram.

    Prometheus-style ``histogram_quantile``: find the bucket holding the
    ``q``-th observation and interpolate linearly inside it (the first
    bucket's lower edge is taken as 0, matching non-negative data).
    Observations past the last finite boundary are clamped to it --
    consistent with Prometheus, the estimate cannot exceed the largest
    finite bucket edge.  Returns ``nan`` for an empty histogram.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    total = histogram.count
    if total == 0:
        return float("nan")
    target = q * total
    counts = histogram.bucket_counts
    boundaries = histogram.boundaries
    cumulative = 0
    for index, bucket_count in enumerate(counts):
        previous = cumulative
        cumulative += bucket_count
        if cumulative >= target:
            if index >= len(boundaries):
                return float(boundaries[-1])
            upper = boundaries[index]
            lower = boundaries[index - 1] if index > 0 else 0.0
            if bucket_count == 0:
                return float(upper)
            return lower + (upper - lower) * (target - previous) / bucket_count
    return float(boundaries[-1])  # pragma: no cover - cumulative == count


def histogram_quantiles_table(
    registry,
    names: Optional[Sequence[str]] = None,
    quantiles: Sequence[float] = (0.5, 0.95, 0.99),
):
    """p50/p95/p99 (by default) of selected histograms, as a table."""
    table = Table(
        title="histogram quantiles (bucket-interpolated)",
        headers=["histogram", "count"]
        + [f"p{q * 100:g}" for q in quantiles],
    )
    for instrument in registry.instruments():
        if instrument.kind != "histogram":
            continue
        if names is not None and instrument.name not in names:
            continue
        table.add_row(
            instrument.name,
            instrument.count,
            *(f"{quantile(instrument, q):.6g}" for q in quantiles),
        )
    table.add_note(
        "estimates interpolate within fixed buckets; values beyond the "
        "last finite boundary clamp to it"
    )
    return table


def key_metrics_table(registry, prefixes: Optional[Sequence[str]] = None):
    """Counters and gauges (optionally filtered by prefix) as a table."""
    table = Table(
        title="recorded metrics",
        headers=["metric", "kind", "value"],
    )
    for instrument in registry.instruments():
        if prefixes and not any(
            instrument.name.startswith(p) for p in prefixes
        ):
            continue
        if instrument.kind == "histogram":
            value = f"count={instrument.count} sum={instrument.sum:.6g}"
        else:
            value = instrument.value
        table.add_row(instrument.name, instrument.kind, value)
    return table


__all__ = [
    "SpanNode",
    "aggregate_spans",
    "format_span_tree",
    "histogram_quantiles_table",
    "key_metrics_table",
    "quantile",
    "top_stages_table",
]
