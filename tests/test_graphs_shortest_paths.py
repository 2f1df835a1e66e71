"""Unit tests for shortest paths (repro.graphs.shortest_paths), and the
engine's numpy Floyd--Warshall against them.

networkx serves as an independent oracle on random instances.
"""

import random

import networkx as nx
import numpy as np
import pytest

from repro.engine.numpy_backend import has_negative_diagonal, min_plus_closure
from repro.graphs.digraph import WeightedDigraph
from repro.graphs.shortest_paths import (
    NegativeCycleError,
    bellman_ford,
    floyd_warshall,
)

INF = float("inf")


def diamond() -> WeightedDigraph:
    """0 -> {1, 2} -> 3 with a shortcut; one negative edge, no neg cycle."""
    return WeightedDigraph.from_edges(
        [
            (0, 1, 4.0),
            (0, 2, 1.0),
            (2, 1, -2.0),
            (1, 3, 1.0),
            (2, 3, 5.0),
        ]
    )


def random_graph(rng: random.Random, n: int, negative: bool) -> WeightedDigraph:
    g = WeightedDigraph()
    for i in range(n):
        g.add_node(i)
    lo = -2.0 if negative else 0.0
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < 0.4:
                g.add_edge(u, v, rng.uniform(lo, 10.0))
    return g


def to_nx(g: WeightedDigraph) -> nx.DiGraph:
    nxg = nx.DiGraph()
    nxg.add_nodes_from(g.nodes)
    for u, v, w in g.edges():
        nxg.add_edge(u, v, weight=w)
    return nxg


class TestBellmanFord:
    def test_diamond_distances(self):
        dist, _ = bellman_ford(diamond(), 0)
        assert dist == pytest.approx({0: 0.0, 1: -1.0, 2: 1.0, 3: 0.0})

    def test_unreachable_is_inf(self):
        g = WeightedDigraph.from_edges([(0, 1, 1.0)])
        g.add_node(2)
        dist, _ = bellman_ford(g, 0)
        assert dist[2] == INF

    def test_missing_source_raises(self):
        with pytest.raises(KeyError):
            bellman_ford(diamond(), 42)

    def test_negative_cycle_detected(self):
        g = WeightedDigraph.from_edges(
            [(0, 1, 1.0), (1, 2, -3.0), (2, 0, 1.0)]
        )
        with pytest.raises(NegativeCycleError):
            bellman_ford(g, 0)

    def test_negative_cycle_witness_is_a_cycle(self):
        g = WeightedDigraph.from_edges(
            [(0, 1, 1.0), (1, 2, -5.0), (2, 1, 1.0), (2, 3, 1.0)]
        )
        with pytest.raises(NegativeCycleError) as info:
            bellman_ford(g, 0)
        cycle = info.value.cycle
        if cycle is not None:  # witness is best-effort
            total = sum(
                g.weight(cycle[i], cycle[(i + 1) % len(cycle)])
                for i in range(len(cycle))
            )
            assert total < 0

    def test_path_reconstruction(self):
        """Parent pointers trace the shortest path 0 -> 2 -> 1."""
        _, parent = bellman_ford(diamond(), 0)
        assert parent[1] == 2 and parent[2] == 0
        assert 0 not in parent

    def test_path_reconstruction_unreachable(self):
        g = WeightedDigraph.from_edges([(0, 1, 1.0)])
        g.add_node(2)
        _, parent = bellman_ford(g, 0)
        assert 2 not in parent

    def test_matches_networkx_on_random_instances(self):
        rng = random.Random(11)
        for trial in range(15):
            g = random_graph(rng, rng.randrange(3, 10), negative=True)
            nxg = to_nx(g)
            try:
                theirs = nx.single_source_bellman_ford_path_length(nxg, 0)
                neg = False
            except nx.NetworkXUnbounded:
                neg = True
            if neg:
                with pytest.raises(NegativeCycleError):
                    bellman_ford(g, 0)
            else:
                dist, _ = bellman_ford(g, 0)
                for node, d in theirs.items():
                    assert dist[node] == pytest.approx(d)


class TestAllPairs:
    def test_floyd_warshall_diamond(self):
        dist = floyd_warshall(diamond())
        assert dist[0][3] == pytest.approx(0.0)
        assert dist[2][1] == pytest.approx(-2.0)
        assert dist[3][0] == INF

    def test_floyd_warshall_negative_cycle(self):
        g = WeightedDigraph.from_edges(
            [(0, 1, 1.0), (1, 0, -2.0)]
        )
        with pytest.raises(NegativeCycleError):
            floyd_warshall(g)

    def test_negative_self_loop_is_negative_cycle(self):
        g = WeightedDigraph.from_edges([(0, 0, -1.0), (0, 1, 1.0)])
        with pytest.raises(NegativeCycleError):
            floyd_warshall(g)

    def test_numpy_equals_scalar_floyd_warshall(self):
        rng = random.Random(31)
        for _ in range(12):
            g = random_graph(rng, rng.randrange(1, 14), negative=True)
            matrix = np.full((len(g.nodes), len(g.nodes)), INF)
            np.fill_diagonal(matrix, 0.0)
            for u, v, w in g.edges():
                matrix[u, v] = w
            actual = min_plus_closure(matrix)
            try:
                expected = floyd_warshall(g)
            except NegativeCycleError:
                assert has_negative_diagonal(actual)
                continue
            assert not has_negative_diagonal(actual)
            for u in g.nodes:
                for v in g.nodes:
                    a, b = expected[u][v], actual[u, v]
                    if a == INF or b == INF:
                        assert a == b
                    else:
                        assert b == pytest.approx(a)

    def test_numpy_floyd_warshall_empty(self):
        assert min_plus_closure(np.zeros((0, 0))).shape == (0, 0)

    def test_empty_graph(self):
        assert floyd_warshall(WeightedDigraph()) == {}

    def test_triangle_inequality_holds(self):
        rng = random.Random(29)
        g = random_graph(rng, 8, negative=False)
        dist = floyd_warshall(g)
        for u in g.nodes:
            for v in g.nodes:
                for w in g.nodes:
                    if dist[u][v] < INF and dist[v][w] < INF:
                        assert dist[u][w] <= dist[u][v] + dist[v][w] + 1e-9
