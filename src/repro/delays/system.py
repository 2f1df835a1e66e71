"""The system ``(G, A)``: a topology plus one delay assumption per link.

This is the object both halves of the code base share: the simulator uses
it to generate (and validate) admissible executions, and the synchronizer
uses it to turn observed views into maximal-local-shift estimates.

Assumptions are stored per *undirected* link under the link's canonical
orientation (the orientation it has in ``topology.links``) and flipped
once at construction; :meth:`System.assumption_oriented` re-orients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro._types import Edge, ProcessorId, Time
from repro.delays.base import DelayAssumption, DirectionStats, PairTiming
from repro.graphs.topology import Topology
from repro.model.execution import Execution


_SILENT = DirectionStats()  # a direction that carried no message


class UnknownLinkError(KeyError):
    """A link was referenced that the topology does not contain."""


@dataclass(frozen=True)
class System:
    """The pair ``(G, A)`` of the paper, with ``A`` given per link."""

    topology: Topology
    assumptions: Mapping[Tuple[ProcessorId, ProcessorId], DelayAssumption]

    def __post_init__(self) -> None:
        links = set(self.topology.links)
        for link in self.assumptions:
            if link not in links:
                raise UnknownLinkError(
                    f"assumption given for {link!r}, which is not a canonical "
                    f"link of {self.topology.name}"
                )
        missing = links - set(self.assumptions)
        if missing:
            raise ValueError(
                f"links without assumptions: {sorted(missing, key=repr)}"
            )
        # (assumption, flipped) per link: no rebuild per mls~ formula call.
        object.__setattr__(self, "_oriented", {
            link: (assumption, assumption.flipped())
            for link, assumption in self.assumptions.items()
        })

    @staticmethod
    def uniform(topology: Topology, assumption: DelayAssumption) -> "System":
        """Attach the same assumption to every link."""
        return System(
            topology=topology,
            assumptions={link: assumption for link in topology.links},
        )

    @staticmethod
    def from_links(
        topology: Topology,
        per_link: Mapping[Tuple[ProcessorId, ProcessorId], DelayAssumption],
        default: Optional[DelayAssumption] = None,
    ) -> "System":
        """Attach assumptions per link, keyed in either orientation.

        ``default`` fills any link not mentioned in ``per_link``.
        """
        resolved: Dict[Tuple[ProcessorId, ProcessorId], DelayAssumption] = {}
        links = set(topology.links)
        for (p, q), assumption in per_link.items():
            if (p, q) in links:
                resolved[(p, q)] = assumption
            elif (q, p) in links:
                # Key was given against the non-canonical orientation; store
                # the flipped assumption so the canonical view is consistent.
                resolved[(q, p)] = assumption.flipped()
            else:
                raise UnknownLinkError(f"({p!r}, {q!r}) is not a link")
        if default is not None:
            for link in links - set(resolved):
                resolved[link] = default
        return System(topology=topology, assumptions=resolved)

    # ------------------------------------------------------------------
    # Link / orientation bookkeeping
    # ------------------------------------------------------------------

    def canonical_link(
        self, p: ProcessorId, q: ProcessorId
    ) -> Tuple[ProcessorId, ProcessorId]:
        """The link between ``p`` and ``q`` in its stored orientation."""
        if (p, q) in self.assumptions:
            return (p, q)
        if (q, p) in self.assumptions:
            return (q, p)
        raise UnknownLinkError(f"no link between {p!r} and {q!r}")

    def assumption_oriented(
        self, p: ProcessorId, q: ProcessorId
    ) -> DelayAssumption:
        """The link's assumption with canonical forward direction ``p -> q``."""
        link = self.canonical_link(p, q)
        return self._oriented[link][link != (p, q)]

    @property
    def processors(self) -> Tuple[ProcessorId, ...]:
        """All processors of the topology."""
        return self.topology.nodes

    def directed_edges(self) -> List[Edge]:
        """Both orientations of every link."""
        return self.topology.directed_edges()

    # ------------------------------------------------------------------
    # Admissibility of concrete executions (ground truth side)
    # ------------------------------------------------------------------

    def link_delays(
        self, alpha: Execution, p: ProcessorId, q: ProcessorId
    ) -> Tuple[List[Time], List[Time]]:
        """Actual delays on link ``{p, q}`` oriented ``p -> q``:
        ``(forward_delays, reverse_delays)``."""
        forward = [r.delay for r in alpha.records_on_edge(p, q)]
        reverse = [r.delay for r in alpha.records_on_edge(q, p)]
        return forward, reverse

    def is_admissible(self, alpha: Execution) -> bool:
        """Whether ``alpha`` is in ``A``: locally admissible on every link.

        Messages on non-links make the execution inadmissible outright
        (the graph defines who may talk to whom).
        """
        delays = self.true_delays(alpha)  # one pass, not one per link
        for p, q in delays:
            if (p, q) not in self.assumptions and (q, p) not in self.assumptions:
                return False
        for (p, q), assumption in self.assumptions.items():
            if not assumption.admits(delays.get((p, q), []), delays.get((q, p), [])):
                return False
        return True

    # ------------------------------------------------------------------
    # Maximal local shifts from delay statistics
    # ------------------------------------------------------------------

    def mls_from_delays(
        self, delays: Mapping[Edge, Sequence[Time]]
    ) -> Dict[Edge, Time]:
        """Maximal local shifts for every directed edge.

        Fed true delays this returns ``mls``; fed estimated delays it
        returns ``mls~`` (the formulas coincide up to the ``S_p - S_q``
        translation, Corollaries 6.3/6.6).
        """
        stats = {
            edge: DirectionStats.of(values) for edge, values in delays.items()
        }
        return self.mls_from_stats(stats)

    def mls_from_stats(
        self, stats: Mapping[Edge, DirectionStats]
    ) -> Dict[Edge, Time]:
        """Maximal local shifts from per-edge extreme-delay statistics.

        Lemmas 6.2/6.5 guarantee the extremes are sufficient statistics,
        so summaries (as shipped by the distributed leader protocol) lose
        nothing relative to full delay lists.
        """
        out: Dict[Edge, Time] = {}
        for (p, q) in self.assumptions:
            out[(p, q)], out[(q, p)] = self.link_mls(
                (p, q), stats.get((p, q), _SILENT), stats.get((q, p), _SILENT)
            )
        return out

    def link_mls(
        self, link: Edge, forward: DirectionStats, reverse: DirectionStats
    ) -> Tuple[Time, Time]:
        """``mls_pair`` of canonical ``link``, from its two directions' stats."""
        assumption, flipped = self._oriented[link]
        return (
            assumption.mls_bound(PairTiming(forward, reverse)),
            flipped.mls_bound(PairTiming(reverse, forward)),
        )

    def true_delays(self, alpha: Execution) -> Dict[Edge, List[Time]]:
        """Ground-truth delays per directed edge of ``alpha``."""
        out: Dict[Edge, List[Time]] = {}
        for record in alpha.message_records().values():
            out.setdefault(record.edge, []).append(record.delay)
        return out


__all__ = ["System", "UnknownLinkError"]
