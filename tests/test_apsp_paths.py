"""Shortest-path reconstruction (``repro.sssp.shortest_path``) against APSP."""

import numpy as np
import pytest

from repro.apsp import dijkstra_apsp
from repro.graph import CSRGraph, cycle_graph, path_graph, randomize_weights
from repro.sssp import dijkstra, shortest_path

from _support import composite_graph


def check_walk(g, walk, d):
    total = sum(g.edge_weight(a, b) for a, b in zip(walk[:-1], walk[1:]))
    assert total == pytest.approx(d, abs=1e-8)


@pytest.mark.parametrize("seed", range(4))
def test_paths_exact_and_valid(seed):
    g = composite_graph(seed)
    ref = dijkstra_apsp(g)
    rng = np.random.default_rng(seed)
    for _ in range(60):
        u, v = map(int, rng.integers(0, g.n, 2))
        d, walk = shortest_path(g, u, v)
        if np.isinf(ref[u, v]):
            assert np.isinf(d) and walk == []
            continue
        assert d == pytest.approx(ref[u, v], abs=1e-8)
        assert walk[0] == u and walk[-1] == v
        check_walk(g, walk, d)


def test_identity():
    g = cycle_graph(5)
    assert shortest_path(g, 2, 2) == (0.0, [2])
    assert dijkstra(g, 2)[2] == 0.0


def test_same_chain_direct():
    g = path_graph(8)
    d, walk = shortest_path(g, 2, 5)
    assert d == 3.0 and walk == [2, 3, 4, 5]


def test_ring_both_directions():
    g = randomize_weights(cycle_graph(9), seed=1, low=1.0, high=1.0)
    d, walk = shortest_path(g, 1, 8)
    assert d == pytest.approx(2.0)
    assert walk == [1, 0, 8]


def test_disconnected():
    g = CSRGraph(4, [0, 2], [1, 3])
    d, walk = shortest_path(g, 0, 3)
    assert np.isinf(d) and walk == []


def test_distance_matches_path():
    g = composite_graph(2)
    rng = np.random.default_rng(0)
    for _ in range(40):
        u, v = map(int, rng.integers(0, g.n, 2))
        d, _ = shortest_path(g, u, v)
        d2 = dijkstra(g, u, target=v)[v]
        assert (np.isinf(d) and np.isinf(d2)) or d == pytest.approx(d2, abs=1e-9)
