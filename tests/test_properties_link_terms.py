"""Every producer of ``mls~`` against the per-link scalar oracle.

``System.mls_from_delays`` evaluates each link's own
``DelayAssumption.mls_pair``, one link at a time; it shares no code with
the compiled :class:`~repro.delays.system.LinkTerms`.  On random ring
and ``random_connected`` topologies under bounded, heterogeneous, bias
and ``Composite`` systems, with some directions left silent:

* ``System.mls_from_stats`` is ``float.hex``-equal to that oracle, with
  the same key order;
* after every ``OnlineSynchronizer.observe``, the result's ``mls~``
  matrix is byte-equal to ``index.matrix(system.mls_from_stats(...))``
  of the statistics this test accumulated itself from the observations
  it fed in;
* ``LinkTerms.mls_of``, which the online refresh uses for the few links
  an observation touched, is bit-equal to ``LinkTerms.mls`` on every
  term kind in any slot order, with silent directions, slot ties and
  ``-0.0``; a tie rule that lets the later slot win is caught.
"""

import dataclasses

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.core.estimates import estimated_delays
from repro.delays.base import FORMULAS, DelayAssumption, DirectionStats, Term
from repro.delays.bias import RoundTripBias
from repro.delays.bounds import BoundedDelay
from repro.delays.composite import Composite
from repro.delays.system import LinkTerms, System
from repro.extensions.online import OnlineSynchronizer
from repro.graphs.topology import random_connected, ring
from repro.workloads.scenarios import (
    bounded_uniform,
    heterogeneous,
    round_trip_bias,
)

INF = float("inf")
FAMILIES = ("bounded", "heterogeneous", "bias", "composite")

topologies = st.one_of(
    st.builds(ring, st.integers(min_value=3, max_value=7)),
    st.builds(
        random_connected,
        st.integers(min_value=2, max_value=7),
        st.floats(min_value=0.0, max_value=0.6),
        st.integers(min_value=0, max_value=10_000),
    ),
)


def scenario_of(family, topology, seed):
    """An admissible scenario of ``family`` on ``topology``."""
    if family == "bounded":
        return bounded_uniform(topology, lb=1.0, ub=3.0, seed=seed)
    if family == "heterogeneous":
        return heterogeneous(topology, seed=seed)
    scenario = round_trip_bias(topology, bias=0.8, seed=seed)
    if family == "bias":
        return scenario
    # Loose bounds and the bias restriction together: the bias
    # scenario's delays (about 0.6 to 20.4) satisfy both.
    composite = Composite.of(
        BoundedDelay.symmetric(0.0, 100.0), RoundTripBias(0.8)
    )
    return dataclasses.replace(
        scenario, system=System.uniform(topology, composite)
    )


def bits(mapping):
    """Key order plus exact float bits of a mapping's items."""
    return [(key, float(value).hex()) for key, value in mapping.items()]


extremes = st.tuples(
    st.floats(min_value=-20.0, max_value=20.0),
    st.floats(min_value=-20.0, max_value=20.0),
).map(sorted)


@given(
    family=st.sampled_from(FAMILIES),
    topology=topologies,
    seed=st.integers(min_value=0, max_value=10_000),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_mls_from_stats_equals_the_per_link_oracle(family, topology, seed, data):
    system = scenario_of(family, topology, seed).system
    edges = system.directed_edges()
    silent = data.draw(st.sets(st.sampled_from(edges)))
    delays = {
        edge: data.draw(extremes) for edge in edges if edge not in silent
    }
    stats = {edge: DirectionStats.of(values) for edge, values in delays.items()}
    assert bits(system.mls_from_stats(stats)) == bits(
        system.mls_from_delays(delays)
    )


@given(
    family=st.sampled_from(FAMILIES),
    topology=topologies,
    seed=st.integers(min_value=0, max_value=10_000),
    data=st.data(),
)
@settings(max_examples=30, deadline=None)
def test_online_mls_matrix_after_every_observation(family, topology, seed, data):
    scenario = scenario_of(family, topology, seed)
    system = scenario.system
    silent = data.draw(st.sets(st.sampled_from(system.directed_edges())))
    messages = [
        (edge, value)
        for edge, values in estimated_delays(scenario.run().views()).items()
        if edge not in silent
        for value in values
    ]
    messages = data.draw(st.permutations(messages))
    online = OnlineSynchronizer(system)
    index = online.synchronizer.index
    seen = {}
    for (p, q), value in messages:
        online.observe(p, q, value)
        seen.setdefault((p, q), []).append(value)
        stats = {edge: DirectionStats.of(values) for edge, values in seen.items()}
        expected = index.matrix(system.mls_from_stats(stats))
        assert online.result().mls_tilde.matrix.tobytes() == expected.tobytes()
        assert online.edge_stats(p, q) == stats[(p, q)]


# ----------------------------------------------------------------------
# LinkTerms.mls_of: a few edges on Python floats, bit for bit LinkTerms.mls
# ----------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Listed(DelayAssumption):
    """Any terms per direction: the Section 6 kinds in any slot order."""

    forward: tuple
    reverse: tuple

    def terms(self):
        return self.forward

    def admits(self, forward, reverse):
        return True

    def flipped(self):
        return Listed(self.reverse, self.forward)


#: Small grids, so slots tie often, also as 0.0 against -0.0.
CONSTANTS = (0.0, -0.0, 0.5, 1.0, 2.0)
EXTREMES = (0.0, -0.0, 0.5, 1.0, 1.5, 2.5)


def random_link_terms(rng, links=12):
    """``LinkTerms`` of a ring whose links list 0-4 random terms a side."""
    topology = ring(links)

    def side():
        return tuple(
            Term(str(rng.choice(list(FORMULAS))), float(rng.choice(CONSTANTS)))
            for _ in range(int(rng.integers(0, 5)))
        )

    system = System(
        topology=topology,
        assumptions={link: Listed(side(), side()) for link in topology.links},
    )
    return system.link_terms


def random_extremes(rng, edges):
    """Per-edge ``dmin``/``dmax`` from the grid; some directions silent."""
    dmin = rng.choice(EXTREMES, edges)
    dmax = rng.choice(EXTREMES, edges)
    silent = rng.random(edges) < 0.2
    dmin[silent], dmax[silent] = INF, -INF
    return dmin, dmax


def mismatches(evaluate, cases=40):
    """Edges, over seeded cases, where ``evaluate(terms, edges, dmin,
    dmax)`` differs from ``LinkTerms.mls`` in any bit."""
    out = []
    for seed in range(cases):
        rng = np.random.default_rng(seed)
        terms = random_link_terms(rng)
        dmin, dmax = random_extremes(rng, len(terms.edges))
        expected = terms.mls(dmin, dmax)
        edges = rng.permutation(len(terms.edges)).tolist()
        got = evaluate(terms, edges, dmin, dmax)
        out += [
            (seed, e) for e, value in zip(edges, got)
            if np.float64(value).tobytes() != expected[e].tobytes()
        ]
    return out


def test_mls_of_equals_mls_bit_for_bit():
    assert mismatches(LinkTerms.mls_of) == []


def test_a_flipped_tie_rule_is_caught():
    """The cases above tell the tie rules apart: an evaluation that lets
    the later slot win a tie (here: ``0.0`` against ``-0.0``) fails."""

    def later_slot_wins(terms, edges, dmin, dmax):
        out = []
        for e in edges:
            value = INF
            for slot, (kind, constant) in enumerate(terms._by_edge[e].terms()):
                bound = FORMULAS[kind](
                    constant, float(dmin[e]), float(dmax[e ^ 1])
                )
                if not slot or bound <= value or bound != bound:
                    value = bound
            out.append(value)
        return out

    assert mismatches(later_slot_wins)
