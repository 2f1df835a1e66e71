"""Property-based tests for the graph algorithms (hypothesis).

Karp's algorithm is checked against exhaustive cycle enumeration and
shortest paths against networkx on random weighted digraphs.
"""

import networkx as nx
import hypothesis.strategies as st
from hypothesis import given, settings

from repro.graphs.digraph import WeightedDigraph
from repro.graphs.karp import (
    cycle_mean,
    enumerate_simple_cycle_means,
    maximum_cycle_mean,
    minimum_cycle_mean,
)
from repro.graphs.shortest_paths import NegativeCycleError, bellman_ford

# Integer-valued weights keep float arithmetic exact, so "negative cycle"
# means the same thing to our tolerance-based detector (which deliberately
# ignores epsilon-scale cycles; see shortest_paths.py) and to networkx's
# strict one.  Epsilon-scale behaviour is covered by unit tests instead.
weights = st.integers(min_value=-5, max_value=5).map(float)


@st.composite
def digraphs(draw, max_nodes=7, allow_negative=True):
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    g = WeightedDigraph()
    for i in range(n):
        g.add_node(i)
    for u in range(n):
        for v in range(n):
            if u != v and draw(st.booleans()):
                w = draw(weights)
                if not allow_negative:
                    w = abs(w)
                g.add_edge(u, v, w)
    return g


class TestKarpProperties:
    @given(digraphs())
    @settings(max_examples=60, deadline=None)
    def test_min_cycle_mean_matches_enumeration(self, g):
        result = minimum_cycle_mean(g)
        cycles = enumerate_simple_cycle_means(g)
        if not cycles:
            assert result.is_acyclic
        else:
            expected = min(m for m, _ in cycles)
            assert abs(result.mean - expected) < 1e-7
            assert abs(cycle_mean(g, result.cycle) - result.mean) < 1e-7

    @given(digraphs())
    @settings(max_examples=60, deadline=None)
    def test_max_is_negated_min(self, g):
        mx = maximum_cycle_mean(g)
        neg = WeightedDigraph()
        for node in g.nodes:
            neg.add_node(node)
        for u, v, w in g.edges():
            neg.add_edge(u, v, -w)
        mn = minimum_cycle_mean(neg)
        if mx.is_acyclic:
            assert mn.is_acyclic
        else:
            assert abs(mx.mean + mn.mean) < 1e-9

    @given(digraphs(), st.floats(min_value=-3.0, max_value=3.0,
                                 allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_uniform_weight_shift_moves_mean_by_same(self, g, delta):
        base = minimum_cycle_mean(g)
        shifted = WeightedDigraph()
        for node in g.nodes:
            shifted.add_node(node)
        for u, v, w in g.edges():
            shifted.add_edge(u, v, w + delta)
        after = minimum_cycle_mean(shifted)
        if base.is_acyclic:
            assert after.is_acyclic
        else:
            assert abs(after.mean - (base.mean + delta)) < 1e-7


class TestShortestPathProperties:
    @given(digraphs())
    @settings(max_examples=60, deadline=None)
    def test_bellman_ford_matches_networkx(self, g):
        nxg = nx.DiGraph()
        nxg.add_nodes_from(g.nodes)
        for u, v, w in g.edges():
            nxg.add_edge(u, v, weight=w)
        try:
            expected = nx.single_source_bellman_ford_path_length(nxg, 0)
            has_negative_cycle = False
        except nx.NetworkXUnbounded:
            has_negative_cycle = True
        if has_negative_cycle:
            try:
                bellman_ford(g, 0)
                raised = False
            except NegativeCycleError:
                raised = True
            assert raised
        else:
            dist, _ = bellman_ford(g, 0)
            for node, d in expected.items():
                assert abs(dist[node] - d) < 1e-7
