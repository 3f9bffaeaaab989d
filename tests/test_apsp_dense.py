"""Floyd–Warshall against repeated Dijkstra."""

import numpy as np
import pytest

from repro.apsp import dijkstra_apsp, floyd_warshall
from repro.graph import CSRGraph, grid_graph

from _support import close, composite_graph


@pytest.mark.parametrize("seed", range(4))
def test_fw_matches_dijkstra(seed):
    g = composite_graph(seed, n=18, m=26)
    assert close(floyd_warshall(g), dijkstra_apsp(g, engine="python"))


def test_fw_empty_and_singleton():
    assert floyd_warshall(CSRGraph(0, [], [])).shape == (0, 0)
    m = floyd_warshall(CSRGraph(1, [], []))
    assert m.shape == (1, 1) and m[0, 0] == 0.0


def test_fw_disconnected_inf():
    g = CSRGraph(4, [0, 2], [1, 3])
    d = floyd_warshall(g)
    assert np.isinf(d[0, 2]) and d[0, 1] == 1.0


def test_fw_diagonal_zero():
    g = composite_graph(2)
    assert (np.diag(floyd_warshall(g)) == 0).all()


def test_fw_symmetry():
    g = composite_graph(0)
    d = floyd_warshall(g)
    assert np.allclose(np.nan_to_num(d, posinf=-1), np.nan_to_num(d.T, posinf=-1))


def test_dijkstra_apsp_engines_agree():
    g = composite_graph(4, n=15, m=22)
    assert close(dijkstra_apsp(g, engine="scipy"), dijkstra_apsp(g, engine="python"))


def test_dijkstra_apsp_bad_engine():
    with pytest.raises(ValueError):
        dijkstra_apsp(grid_graph(2, 2), engine="cuda")
