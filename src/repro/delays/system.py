"""The system ``(G, A)``: a topology plus one delay assumption per link.

This is the object both halves of the code base share: the simulator uses
it to generate (and validate) admissible executions, and the synchronizer
uses it to turn observed views into maximal-local-shift estimates.

Assumptions are stored per *undirected* link under the link's canonical
orientation (the orientation it has in ``topology.links``) and flipped
once at construction; :meth:`System.assumption_oriented` re-orients.
Construction also compiles every link's Section 6 terms into
:class:`LinkTerms`, which evaluates all of ``mls~`` in a few vector
expressions: the views front end (:mod:`repro.core.estimates`),
:meth:`System.mls_from_stats` and the online synchronizer all go
through it.  :meth:`System.mls_from_delays` stays the per-link scalar
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro._types import INF, NEG_INF, Edge, ProcessorId, Time
from repro.delays.base import (
    FORMULAS,
    DelayAssumption,
    DirectionStats,
    PairTiming,
)
from repro.graphs.topology import Topology
from repro.model.execution import Execution


class UnknownLinkError(KeyError):
    """A link was referenced that the topology does not contain."""


class LinkTerms:
    """Every link's Section 6 terms as arrays, compiled once per system.

    Directed edges are numbered in :meth:`System.mls_from_stats` order
    (each link's canonical orientation, then its reverse), so edge
    ``e ^ 1`` is the reverse of edge ``e``.  Each term kind holds the
    edges, term slots and constants of all its terms; :meth:`mls`
    evaluates one formula of :data:`~repro.delays.base.FORMULAS` per
    kind over all of them and takes the per-edge min over the slots;
    :meth:`mls_of` evaluates a few edges the same way on Python floats.
    """

    __slots__ = (
        "edges", "numbers", "cells", "_rows", "_codes",
        "_code_edges", "_slots", "_kinds", "_by_edge", "_edge_terms",
    )

    def __init__(
        self,
        oriented: Mapping[Edge, Tuple[DelayAssumption, DelayAssumption]],
        processors: Sequence[ProcessorId],
    ):
        edges: List[Edge] = []
        by_edge: List[DelayAssumption] = []
        for link, (assumption, flipped) in oriented.items():
            edges += (link, link[::-1])
            by_edge += (assumption, flipped)
        columns: Dict[str, Tuple[list, list, list]] = {
            kind: ([], [], []) for kind in FORMULAS
        }
        for edge, assumption in enumerate(by_edge):
            for slot, (kind, constant) in enumerate(assumption.terms()):
                edge_ids, slots, constants = columns[kind]
                edge_ids.append(edge)
                slots.append(slot)
                constants.append(constant)
        self._by_edge = tuple(by_edge)
        # Filled by mls_of as it meets edges: their terms in slot order
        # as (formula, constant), the constant as the arrays hold it.
        self._edge_terms: Dict[int, Tuple[Tuple[Callable, float], ...]] = {}
        #: Directed edges, indexed by edge number.
        self.edges: Tuple[Edge, ...] = tuple(edges)
        #: Edge number of each directed edge.
        self.numbers: Dict[Edge, int] = {e: i for i, e in enumerate(edges)}
        self._rows = {p: i for i, p in enumerate(processors)}
        n = len(self._rows)
        senders, receivers = (
            np.array([self._rows[edge[end]] for edge in edges], dtype=np.int64)
            for end in (0, 1)
        )
        #: Flat cell of each directed edge in the ``(n, n)`` matrix.
        self.cells: np.ndarray = senders * n + receivers
        # Receiver-major lookup codes: matched receives come grouped by
        # receiving view, so their codes reach searchsorted nearly sorted.
        codes = receivers * (n + 1) + senders
        self._code_edges = np.argsort(codes)
        self._codes = codes[self._code_edges]
        self._slots = max(
            (max(slots) + 1 for _, slots, _ in columns.values() if slots),
            default=1,
        )
        # Per kind: its formula, the edges whose dmin and dmax its terms
        # read (edge e and its reverse e ^ 1), the flat cell of each term
        # in the (slots, edges) bounds array, and the constants.
        self._kinds = tuple(
            (
                FORMULAS[kind],
                np.array(edge_ids, dtype=np.intp),
                np.array(edge_ids, dtype=np.intp) ^ 1,
                np.array(slots, dtype=np.intp) * len(edges) + edge_ids,
                np.array(constants, dtype=float),
            )
            for kind, (edge_ids, slots, constants) in columns.items()
            if edge_ids
        )

    def edge_numbers(
        self,
        processors: Sequence[ProcessorId],
        senders: np.ndarray,
        receivers: np.ndarray,
    ) -> np.ndarray:
        """Edge number of each ``processors[senders[i]] ->
        processors[receivers[i]]``, or ``-1`` where that is no link."""
        if not len(self._codes):
            return np.full(len(senders), -1, dtype=np.intp)
        outside = len(self._rows)
        rows = np.array(
            [self._rows.get(p, outside) for p in processors], dtype=np.int64
        )
        codes = rows[receivers] * (outside + 1) + rows[senders]
        at = np.searchsorted(self._codes, codes)
        at[at == len(self._codes)] = 0
        return np.where(self._codes[at] == codes, self._code_edges[at], -1)

    def mls(self, dmin: np.ndarray, dmax: np.ndarray) -> np.ndarray:
        """``mls`` of every edge from its ``dmin`` and ``dmax`` (silent:
        ``+inf``/``-inf``); edge ``e``'s terms read ``dmin[e]`` and
        ``dmax[e ^ 1]``."""
        bounds = np.full(self._slots * len(self.edges), INF)
        for formula, forward, reverse, cells, constants in self._kinds:
            np.put(bounds, cells, formula(
                constants, dmin.take(forward), dmax.take(reverse)
            ))
        bounds = bounds.reshape(self._slots, len(self.edges))
        mls = bounds[0]
        for slot in bounds[1:]:
            # A tie keeps the earlier term's value, as Python's min() does.
            mls = np.minimum(slot, mls)
        return mls

    def mls_of(
        self, edges: Sequence[int], dmin: np.ndarray, dmax: np.ndarray
    ) -> List[float]:
        """:meth:`mls` of the edges ``edges`` only, evaluated on Python
        floats with the same formulas and tie rule: bit for bit the
        values :meth:`mls` returns for them."""
        out = []
        for e in edges:
            terms = self._edge_terms.get(e)
            if terms is None:
                terms = self._edge_terms[e] = tuple(
                    (FORMULAS[kind], float(constant))
                    for kind, constant in self._by_edge[e].terms()
                )
            forward, reverse = float(dmin[e]), float(dmax[e ^ 1])
            value = INF  # an edge without terms: no constraint
            for slot, (formula, constant) in enumerate(terms):
                bound = formula(constant, forward, reverse)
                # np.minimum(bound, value): a tie keeps the earlier
                # slot's value, a nan propagates.
                if not slot or bound < value or bound != bound:
                    value = bound
            out.append(value)
        return out

    def matrix(self, dmin: np.ndarray, dmax: np.ndarray) -> np.ndarray:
        """:meth:`mls` as the ``(n, n)`` matrix over the processors:
        ``+inf`` off the links, 0 on the diagonal."""
        return self.matrix_of(self.mls(dmin, dmax))

    def matrix_of(self, mls: np.ndarray) -> np.ndarray:
        """Per-edge values ``mls`` (as :meth:`mls` returns them) as the
        ``(n, n)`` matrix: ``+inf`` off the links, 0 on the diagonal."""
        out = np.full((len(self._rows), len(self._rows)), INF)
        np.fill_diagonal(out, 0.0)
        np.put(out, self.cells, mls)
        return out


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
        object.__setattr__(
            self, "_terms", LinkTerms(self._oriented, self.topology.nodes)
        )

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
    def link_terms(self) -> LinkTerms:
        """Every link's Section 6 terms, compiled for vector evaluation."""
        return self._terms

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
        translation, Corollaries 6.3/6.6).  Evaluated link by link with
        each assumption's own :meth:`~DelayAssumption.mls_pair`: this
        scalar loop is the oracle the compiled :class:`LinkTerms` are
        checked against.
        """
        out: Dict[Edge, Time] = {}
        for (p, q), assumption in self.assumptions.items():
            out[(p, q)], out[(q, p)] = assumption.mls_pair(PairTiming(
                DirectionStats.of(delays.get((p, q), ())),
                DirectionStats.of(delays.get((q, p), ())),
            ))
        return out

    def mls_from_stats(
        self, stats: Mapping[Edge, DirectionStats]
    ) -> Dict[Edge, Time]:
        """Maximal local shifts from per-edge extreme-delay statistics.

        Lemmas 6.2/6.5 guarantee the extremes are sufficient statistics,
        so summaries (as shipped by the distributed leader protocol) lose
        nothing relative to full delay lists.  Keys come in
        :class:`LinkTerms` edge order; stats of non-links are ignored.
        """
        terms = self._terms
        numbers = terms.numbers
        dmin = [INF] * len(terms.edges)
        dmax = [NEG_INF] * len(terms.edges)
        for edge, direction in stats.items():
            e = numbers.get(edge)
            if e is not None:
                dmin[e] = direction.min_delay
                dmax[e] = direction.max_delay
        mls = terms.mls(np.array(dmin, dtype=float), np.array(dmax, dtype=float))
        return dict(zip(terms.edges, mls.tolist()))

    def true_delays(self, alpha: Execution) -> Dict[Edge, List[Time]]:
        """Ground-truth delays per directed edge of ``alpha``."""
        out: Dict[Edge, List[Time]] = {}
        for record in alpha.message_records().values():
            out.setdefault(record.edge, []).append(record.delay)
        return out


__all__ = ["LinkTerms", "System", "UnknownLinkError"]
