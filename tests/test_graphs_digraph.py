"""Unit tests for the weighted digraphs of the pipeline: how ordered
pairs become a weight matrix (``ProcessorIndex.matrix``), and the
reference strongly connected components (repro.engine.python_backend),
Tarjan on the finite entries of a weight matrix, against networkx on
random instances."""

import random

import networkx as nx
import numpy as np

from repro.engine import ProcessorIndex
from repro.engine.python_backend import strongly_connected_components

from oracles import INF, matrix_from_edges


def triangle():
    return matrix_from_edges([(0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0)])


class TestConstruction:
    def test_nodes_and_edges_counted(self):
        pairs = {(0, 1): 1.0, (1, 2): 2.0, (2, 0): 3.0}
        m = ProcessorIndex([0, 1, 2]).matrix(pairs)
        assert m.shape == (3, 3)
        assert np.isfinite(m[~np.eye(3, dtype=bool)]).sum() == 3

    def test_subgraph_finite_drops_inf(self):
        """Infinite weights are absent edges: the would-be cycle through
        the ``-inf`` edge does not join 1 and 2."""
        g = matrix_from_edges(
            [(0, 1, 1.0), (1, 0, INF), (1, 2, -INF), (2, 1, 1.0)]
        )
        assert strongly_connected_components(g) == [[0], [1], [2]]


class TestConnectivity:
    def test_triangle_is_strongly_connected(self):
        assert strongly_connected_components(triangle()) == [[0, 1, 2]]

    def test_one_way_path_is_not(self):
        g = matrix_from_edges([(0, 1, 1.0), (1, 2, 1.0)])
        assert len(strongly_connected_components(g)) == 3

    def test_single_node_is(self):
        assert strongly_connected_components([[0.0]]) == [[0]]

    def test_sccs_of_two_cycles_joined_one_way(self):
        g = matrix_from_edges(
            [
                (0, 1, 1.0),
                (1, 0, 1.0),
                (1, 2, 1.0),  # bridge, one-way
                (2, 3, 1.0),
                (3, 2, 1.0),
            ]
        )
        assert strongly_connected_components(g) == [[0, 1], [2, 3]]

    def test_sccs_cover_all_nodes(self):
        g = matrix_from_edges([(i, i + 1, 1.0) for i in range(10)])
        components = strongly_connected_components(g)
        assert sorted(n for c in components for n in c) == list(range(11))

    def test_sccs_match_networkx_on_random_graphs(self):
        rng = random.Random(5)
        for _ in range(10):
            n = rng.randrange(2, 12)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(n)
                if u != v and rng.random() < 0.25
            ]
            ours = matrix_from_edges([(u, v, 1.0) for u, v in edges], n=n)
            nxg = nx.DiGraph(edges)
            nxg.add_nodes_from(range(n))
            theirs = sorted(
                sorted(c) for c in nx.strongly_connected_components(nxg)
            )
            assert strongly_connected_components(ours) == theirs
