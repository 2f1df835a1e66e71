"""Unit tests for the reference Karp (repro.engine.python_backend).

Brute-force enumeration of simple cycles is the oracle; the critical
cycle returned is always verified to achieve the reported mean.  Graphs
that are not strongly connected go through :func:`oracles.min_cycle_mean`
/ :func:`oracles.max_cycle_mean`, which run the reference Karp inside
each reference SCC.
"""

import random

import pytest

from oracles import (
    INF,
    cycle_mean,
    cycle_weight,
    enumerate_simple_cycle_means,
    matrix_from_edges,
    max_cycle_mean,
    min_cycle_mean,
)


def two_cycles():
    """Cycle (0,1) has mean 3; cycle (0,1,2) has mean 2."""
    return matrix_from_edges(
        [
            (0, 1, 2.0),
            (1, 0, 4.0),
            (1, 2, 1.0),
            (2, 0, 3.0),
        ]
    )


def random_graph(rng: random.Random, n: int):
    g = [[INF] * n for _ in range(n)]
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < 0.5:
                g[u][v] = rng.uniform(-5.0, 5.0)
    return g


class TestKnownInstances:
    def test_min_mean_of_two_cycles(self):
        mean, cycle = min_cycle_mean(two_cycles())
        assert mean == pytest.approx(2.0)
        assert cycle_mean(two_cycles(), cycle) == pytest.approx(2.0)

    def test_max_mean_of_two_cycles(self):
        mean, cycle = max_cycle_mean(two_cycles())
        assert mean == pytest.approx(3.0)
        assert cycle_mean(two_cycles(), cycle) == pytest.approx(3.0)

    def test_acyclic_graph(self):
        g = matrix_from_edges([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)])
        assert min_cycle_mean(g) is None

    def test_single_node_no_edges(self):
        assert min_cycle_mean([[INF]]) is None

    def test_empty_graph(self):
        assert min_cycle_mean([]) is None

    def test_uniform_weights(self):
        g = matrix_from_edges([(i, (i + 1) % 5, 2.5) for i in range(5)])
        assert min_cycle_mean(g)[0] == pytest.approx(2.5)
        assert max_cycle_mean(g)[0] == pytest.approx(2.5)

    def test_negative_means_supported(self):
        g = matrix_from_edges([(0, 1, -1.0), (1, 0, -3.0)])
        assert min_cycle_mean(g)[0] == pytest.approx(-2.0)
        assert max_cycle_mean(g)[0] == pytest.approx(-2.0)

    def test_cycle_spanning_two_sccs_ignored(self):
        """The bridge edge is on no cycle and must not affect the mean."""
        g = matrix_from_edges(
            [
                (0, 1, 1.0),
                (1, 0, 1.0),
                (1, 2, -100.0),  # bridge
                (2, 3, 4.0),
                (3, 2, 4.0),
            ]
        )
        assert min_cycle_mean(g)[0] == pytest.approx(1.0)
        assert max_cycle_mean(g)[0] == pytest.approx(4.0)


class TestAgainstBruteForce:
    def test_min_matches_enumeration_on_random_graphs(self):
        rng = random.Random(7)
        for trial in range(20):
            g = random_graph(rng, rng.randrange(3, 8))
            all_cycles = enumerate_simple_cycle_means(g)
            result = min_cycle_mean(g)
            if not all_cycles:
                assert result is None
                continue
            expected = min(mean for mean, _ in all_cycles)
            assert result[0] == pytest.approx(expected), f"trial {trial}"
            # The witness cycle must achieve the mean.
            assert cycle_mean(g, result[1]) == pytest.approx(expected)

    def test_max_matches_enumeration_on_random_graphs(self):
        rng = random.Random(13)
        for trial in range(20):
            g = random_graph(rng, rng.randrange(3, 8))
            all_cycles = enumerate_simple_cycle_means(g)
            result = max_cycle_mean(g)
            if not all_cycles:
                assert result is None
                continue
            expected = max(mean for mean, _ in all_cycles)
            assert result[0] == pytest.approx(expected), f"trial {trial}"
            assert cycle_mean(g, result[1]) == pytest.approx(expected)


class TestCycleHelpers:
    def test_cycle_weight_and_mean(self):
        g = two_cycles()
        assert cycle_weight(g, [0, 1]) == pytest.approx(6.0)
        assert cycle_mean(g, [0, 1]) == pytest.approx(3.0)
        assert cycle_weight(g, [0, 1, 2]) == pytest.approx(6.0)
        assert cycle_mean(g, [0, 1, 2]) == pytest.approx(2.0)

    def test_enumeration_respects_limit(self):
        g = random_graph(random.Random(1), 6)
        limited = enumerate_simple_cycle_means(g, limit=3)
        assert len(limited) <= 3
