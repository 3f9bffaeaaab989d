"""Algorithm 1: ear-reduced APSP and its post-processing formulas."""

import numpy as np
import pytest

from repro.apsp import EarAPSPReport, dijkstra_apsp, ear_apsp_full, extend_reduced_distances
from repro.decomposition import reduce_graph
from repro.graph import (
    CSRGraph,
    cycle_graph,
    grid_graph,
    path_graph,
    randomize_weights,
    subdivide_edges,
)
from repro.sssp import all_pairs

from _support import biconnected_weighted, close, composite_graph


@pytest.mark.parametrize("seed", range(8))
def test_exact_on_composites(seed):
    g = composite_graph(seed)
    assert close(ear_apsp_full(g), dijkstra_apsp(g))


@pytest.mark.parametrize("seed", range(4))
def test_exact_on_subdivided_biconnected(seed):
    g = subdivide_edges(biconnected_weighted(seed), 0.7, seed=seed, chain_length=(2, 5))
    assert close(ear_apsp_full(g), dijkstra_apsp(g))


def test_python_engine_agrees():
    g = composite_graph(0, n=15, m=22)
    assert close(ear_apsp_full(g, engine="python"), ear_apsp_full(g))


def test_pure_cycle():
    g = randomize_weights(cycle_graph(9), seed=1)
    assert close(ear_apsp_full(g), dijkstra_apsp(g))


def test_path_graph_everything_removed_but_ends():
    g = randomize_weights(path_graph(12), seed=2)
    assert close(ear_apsp_full(g), dijkstra_apsp(g))


def test_theta_graph_parallel_chains():
    # two vertices joined by three 2-hop chains with distinct weights
    g = CSRGraph(
        5,
        [0, 2, 0, 3, 0, 4],
        [2, 1, 3, 1, 4, 1],
        [1.0, 1.0, 2.0, 2.0, 0.5, 0.2],
    )
    d = ear_apsp_full(g)
    assert close(d, dijkstra_apsp(g))
    assert d[0, 1] == pytest.approx(0.7)  # via the cheap chain
    assert d[2, 4] == pytest.approx(1.2)  # crosses between chains via 1


def test_same_chain_direct_beats_crossing():
    # heavy anchors: path between interior nodes must go along the chain
    g = CSRGraph(
        6,
        [0, 1, 2, 3, 4, 5],
        [1, 2, 3, 4, 5, 0],
        [100.0, 1.0, 1.0, 1.0, 100.0, 100.0],
    )
    d = ear_apsp_full(g)
    assert d[2, 4] == pytest.approx(2.0)


def test_report_counts():
    g = subdivide_edges(biconnected_weighted(1), 0.5, seed=1)
    rep = EarAPSPReport()
    ear_apsp_full(g, report=rep)
    assert rep.n == g.n
    assert rep.n_reduced + rep.n_removed == g.n
    assert 0 < rep.m_reduced < g.m


def test_extend_reduced_distances_direct_call():
    g = subdivide_edges(randomize_weights(grid_graph(3, 3), seed=3), 0.6, seed=3)
    red = reduce_graph(g)
    s_r = all_pairs(red.simple_graph())
    full = extend_reduced_distances(red, s_r)
    assert close(full, dijkstra_apsp(g))
    assert (np.diag(full) == 0).all()


def test_extend_with_no_removed_vertices():
    from repro.graph import complete_graph

    g = complete_graph(5)
    red = reduce_graph(g)
    s_r = all_pairs(red.simple_graph())
    assert close(extend_reduced_distances(red, s_r), dijkstra_apsp(g))


def test_disconnected_components():
    g = CSRGraph(8, [0, 1, 2, 4, 5, 6], [1, 2, 0, 5, 6, 4], [1, 2, 3, 1, 1, 1])
    d = ear_apsp_full(g)
    assert np.isinf(d[0, 4])
    assert close(d, dijkstra_apsp(g))


def test_isolated_vertices():
    g = CSRGraph(5, [0, 1], [1, 2])
    d = ear_apsp_full(g)
    assert np.isinf(d[0, 4]) and d[4, 4] == 0.0


def test_matrix_is_symmetric():
    g = composite_graph(2)
    d = ear_apsp_full(g)
    assert np.allclose(np.nan_to_num(d, posinf=-1), np.nan_to_num(d.T, posinf=-1))
