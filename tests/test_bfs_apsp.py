"""Hop counts: the exact pipelines on unit-weight graphs against networkx BFS."""

import networkx as nx
import numpy as np
import pytest

from repro.apsp import dijkstra_apsp, ear_apsp_full
from repro.graph import CSRGraph, gnm_random_graph, grid_graph, to_networkx
from repro.sssp import dijkstra

from _support import close


def hops(g):
    """All-pairs hop counts by networkx BFS (``inf`` when unreachable)."""
    d = np.full((g.n, g.n), np.inf)
    for u, row in nx.all_pairs_shortest_path_length(to_networkx(g)):
        for v, h in row.items():
            d[u, v] = h
    return d


@pytest.mark.parametrize("seed", range(4))
def test_bfs_matches_unit_dijkstra(seed):
    g = gnm_random_graph(40, 70, seed=seed, connected=(seed % 2 == 0))
    g = g.with_weights(np.ones(g.m))
    assert close(hops(g), dijkstra_apsp(g))


def test_bfs_distances_grid(grid):
    d = dijkstra(grid, 0)
    # manhattan distance on the unit-weight grid
    rows, cols = 5, 6
    for v in range(grid.n):
        assert d[v] == (v // cols) + (v % cols)


def test_bfs_unreachable():
    g = CSRGraph(4, [0], [1])
    d = dijkstra(g, 0)
    assert np.isinf(d[2]) and d[1] == 1.0


def test_ear_bfs_on_pure_unit_graph():
    g = grid_graph(4, 5)  # no chains contract to length > 1 except corners
    assert close(ear_apsp_full(g), hops(g))
