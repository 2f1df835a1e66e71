"""Unit tests for the reference shortest paths
(repro.engine.python_backend), and the engine's numpy Floyd--Warshall
against them.

networkx serves as an independent oracle on random instances.
"""

import random

import networkx as nx
import numpy as np
import pytest

from repro.engine.numpy_backend import has_negative_diagonal, min_plus_closure
from repro.engine.python_backend import bellman_ford, floyd_warshall

from oracles import INF, matrix_from_edges


def diamond():
    """0 -> {1, 2} -> 3 with a shortcut; one negative edge, no neg cycle."""
    return matrix_from_edges(
        [
            (0, 1, 4.0),
            (0, 2, 1.0),
            (2, 1, -2.0),
            (1, 3, 1.0),
            (2, 3, 5.0),
        ]
    )


def random_graph(rng: random.Random, n: int, negative: bool):
    g = [[INF] * n for _ in range(n)]
    lo = -2.0 if negative else 0.0
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < 0.4:
                g[u][v] = rng.uniform(lo, 10.0)
    return g


def to_nx(g) -> nx.DiGraph:
    nxg = nx.DiGraph()
    nxg.add_nodes_from(range(len(g)))
    for u, row in enumerate(g):
        for v, w in enumerate(row):
            if w != INF:
                nxg.add_edge(u, v, weight=w)
    return nxg


def tight_predecessors(g, dist, v):
    """Nodes ``u`` whose edge into ``v`` lies on a shortest path."""
    return [
        u
        for u, row in enumerate(g)
        if u != v and row[v] != INF and dist[u] + row[v] == dist[v]
    ]


class TestBellmanFord:
    def test_diamond_distances(self):
        dist = bellman_ford(diamond(), 0)
        assert dist == pytest.approx([0.0, -1.0, 1.0, 0.0])

    def test_unreachable_is_inf(self):
        g = matrix_from_edges([(0, 1, 1.0)], n=3)
        assert bellman_ford(g, 0)[2] == INF

    def test_missing_source_raises(self):
        with pytest.raises(IndexError):
            bellman_ford(diamond(), 42)

    def test_negative_cycle_detected(self):
        g = matrix_from_edges([(0, 1, 1.0), (1, 2, -3.0), (2, 0, 1.0)])
        assert bellman_ford(g, 0) is None

    def test_negative_cycle_witness_is_a_cycle(self):
        """Bellman--Ford refuses; Floyd--Warshall's negative diagonal
        marks exactly the nodes on the negative cycle 1 -> 2 -> 1."""
        g = matrix_from_edges(
            [(0, 1, 1.0), (1, 2, -5.0), (2, 1, 1.0), (2, 3, 1.0)]
        )
        assert bellman_ford(g, 0) is None
        diagonal = [row[i] for i, row in enumerate(floyd_warshall(g))]
        assert [i for i, d in enumerate(diagonal) if d < 0] == [1, 2]

    def test_path_reconstruction(self):
        """Tight edges trace the shortest path 0 -> 2 -> 1."""
        g = diamond()
        dist = bellman_ford(g, 0)
        assert tight_predecessors(g, dist, 1) == [2]
        assert tight_predecessors(g, dist, 2) == [0]
        assert tight_predecessors(g, dist, 0) == []

    def test_path_reconstruction_unreachable(self):
        g = matrix_from_edges([(0, 1, 1.0)], n=3)
        assert tight_predecessors(g, bellman_ford(g, 0), 2) == []

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
                assert bellman_ford(g, 0) is None
            else:
                dist = bellman_ford(g, 0)
                for node, d in theirs.items():
                    assert dist[node] == pytest.approx(d)


class TestAllPairs:
    def test_floyd_warshall_diamond(self):
        dist = floyd_warshall(diamond())
        assert dist[0][3] == pytest.approx(0.0)
        assert dist[2][1] == pytest.approx(-2.0)
        assert dist[3][0] == INF

    def test_floyd_warshall_negative_cycle(self):
        g = matrix_from_edges([(0, 1, 1.0), (1, 0, -2.0)])
        assert min(floyd_warshall(g)[i][i] for i in range(2)) < 0

    def test_negative_self_loop_is_negative_cycle(self):
        g = matrix_from_edges([(0, 0, -1.0), (0, 1, 1.0)])
        assert floyd_warshall(g)[0][0] < 0

    def test_numpy_equals_scalar_floyd_warshall(self):
        rng = random.Random(31)
        for _ in range(12):
            g = random_graph(rng, rng.randrange(1, 14), negative=True)
            matrix = np.array(g).reshape(len(g), len(g))
            np.fill_diagonal(matrix, 0.0)
            actual = min_plus_closure(matrix)
            expected = floyd_warshall(g)
            if any(expected[i][i] < -1e-9 for i in range(len(g))):
                assert has_negative_diagonal(actual)
                continue
            assert not has_negative_diagonal(actual)
            for u in range(len(g)):
                for v in range(len(g)):
                    a, b = expected[u][v], actual[u, v]
                    if a == INF or b == INF:
                        assert a == b
                    else:
                        assert b == pytest.approx(a)

    def test_numpy_floyd_warshall_empty(self):
        assert min_plus_closure(np.zeros((0, 0))).shape == (0, 0)

    def test_empty_graph(self):
        assert floyd_warshall([]) == []

    def test_triangle_inequality_holds(self):
        rng = random.Random(29)
        g = random_graph(rng, 8, negative=False)
        dist = floyd_warshall(g)
        for u in range(8):
            for v in range(8):
                for w in range(8):
                    if dist[u][v] < INF and dist[v][w] < INF:
                        assert dist[u][w] <= dist[u][v] + dist[v][w] + 1e-9
