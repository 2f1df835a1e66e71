"""Property-based tests for the reference graph kernels (hypothesis).

Karp's algorithm is checked against exhaustive cycle enumeration and
Bellman--Ford against networkx on random weighted digraphs.
"""

import networkx as nx
import hypothesis.strategies as st
from hypothesis import given, settings

from repro.engine.python_backend import bellman_ford

from oracles import (
    INF,
    cycle_mean,
    enumerate_simple_cycle_means,
    max_cycle_mean,
    min_cycle_mean,
)

# Integer-valued weights keep float arithmetic exact, so "negative cycle"
# means the same thing to our tolerance-based detector (which deliberately
# ignores epsilon-scale cycles) and to networkx's strict one.
# Epsilon-scale behaviour is covered by unit tests instead.
weights = st.integers(min_value=-5, max_value=5).map(float)


@st.composite
def digraphs(draw, max_nodes=7, allow_negative=True):
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    g = [[INF] * n for _ in range(n)]
    for u in range(n):
        for v in range(n):
            if u != v and draw(st.booleans()):
                w = draw(weights)
                if not allow_negative:
                    w = abs(w)
                g[u][v] = w
    return g


def shifted(g, delta, sign=1.0):
    """``sign * w + delta`` on every edge; absent edges stay absent."""
    return [[sign * w + delta if w != INF else INF for w in row] for row in g]


class TestKarpProperties:
    @given(digraphs())
    @settings(max_examples=60, deadline=None)
    def test_min_cycle_mean_matches_enumeration(self, g):
        result = min_cycle_mean(g)
        cycles = enumerate_simple_cycle_means(g)
        if not cycles:
            assert result is None
        else:
            expected = min(m for m, _ in cycles)
            assert abs(result[0] - expected) < 1e-7
            assert abs(cycle_mean(g, result[1]) - result[0]) < 1e-7

    @given(digraphs())
    @settings(max_examples=60, deadline=None)
    def test_max_is_negated_min(self, g):
        mx = max_cycle_mean(g)
        mn = min_cycle_mean(shifted(g, 0.0, sign=-1.0))
        if mx is None:
            assert mn is None
        else:
            assert abs(mx[0] + mn[0]) < 1e-9

    @given(digraphs(), st.floats(min_value=-3.0, max_value=3.0,
                                 allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_uniform_weight_shift_moves_mean_by_same(self, g, delta):
        base = min_cycle_mean(g)
        after = min_cycle_mean(shifted(g, delta))
        if base is None:
            assert after is None
        else:
            assert abs(after[0] - (base[0] + delta)) < 1e-7


class TestShortestPathProperties:
    @given(digraphs())
    @settings(max_examples=60, deadline=None)
    def test_bellman_ford_matches_networkx(self, g):
        nxg = nx.DiGraph()
        nxg.add_nodes_from(range(len(g)))
        for u, row in enumerate(g):
            for v, w in enumerate(row):
                if w != INF:
                    nxg.add_edge(u, v, weight=w)
        try:
            expected = nx.single_source_bellman_ford_path_length(nxg, 0)
            has_negative_cycle = False
        except nx.NetworkXUnbounded:
            has_negative_cycle = True
        if has_negative_cycle:
            assert bellman_ford(g, 0) is None
        else:
            dist = bellman_ford(g, 0)
            for node, d in expected.items():
                assert abs(dist[node] - d) < 1e-7
