"""All SSSP kernels against networkx and each other."""

import networkx as nx
import numpy as np
import pytest

from repro.graph import (
    CSRGraph,
    cycle_graph,
    gnm_random_graph,
    grid_graph,
    path_graph,
    randomize_weights,
    to_networkx,
)
from repro.sssp import (
    dijkstra,
    dijkstra_tree,
    multi_source,
    shortest_path,
    spt_forest,
    sssp,
)

from _support import composite_graph

KERNELS = [dijkstra, sssp]


def nx_reference(g, source):
    G = to_networkx(g)
    ref = np.full(g.n, np.inf)
    for t, d in nx.single_source_dijkstra_path_length(G, source).items():
        ref[t] = d
    return ref


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("kernel", KERNELS, ids=lambda f: f.__name__)
def test_kernels_match_networkx(kernel, seed):
    g = randomize_weights(gnm_random_graph(50, 90, seed=seed, connected=(seed % 2 == 0)), seed=seed)
    ref = nx_reference(g, 0)
    got = kernel(g, 0)
    assert np.allclose(
        np.nan_to_num(got, posinf=-1), np.nan_to_num(ref, posinf=-1), atol=1e-9
    )


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda f: f.__name__)
def test_kernels_on_multigraph_with_loops(kernel, multigraph):
    ref = nx_reference(multigraph, 0)
    got = kernel(multigraph, 0)
    assert np.allclose(got, ref)


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda f: f.__name__)
def test_single_vertex(kernel):
    g = CSRGraph(1, [], [])
    assert kernel(g, 0)[0] == 0.0


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda f: f.__name__)
def test_unreachable_is_inf(kernel):
    g = CSRGraph(3, [0], [1])
    d = kernel(g, 0)
    assert np.isinf(d[2]) and d[1] == 1.0


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda f: f.__name__)
def test_zero_weight_edges(kernel):
    g = CSRGraph(3, [0, 1], [1, 2], [0.0, 2.0])
    d = kernel(g, 0)
    # the compiled engine nudges explicit zeros to 1e-300 (documented)
    assert d[1] == pytest.approx(0.0, abs=1e-12) and d[2] == pytest.approx(2.0)


def test_dijkstra_early_exit():
    g = path_graph(100)
    d = dijkstra(g, 0, target=3)
    assert d[3] == 3.0  # exact up to the target


def test_dijkstra_tree_parents_consistent():
    g = randomize_weights(grid_graph(5, 5), seed=1)
    dist, parent, pedge = dijkstra_tree(g, 0)
    for v in range(1, g.n):
        p = int(parent[v])
        assert p >= 0
        u, w = g.edge_endpoints(int(pedge[v]))
        assert {v, p} == {u, w}
        assert np.isclose(dist[v], dist[p] + g.edge_w[pedge[v]])


def test_shortest_path_recovery():
    g = path_graph(6)
    d, path = shortest_path(g, 0, 5)
    assert d == 5.0 and path == [0, 1, 2, 3, 4, 5]


def test_shortest_path_unreachable():
    g = CSRGraph(3, [0], [1])
    d, path = shortest_path(g, 0, 2)
    assert np.isinf(d) and path == []


def test_multi_source_shape_and_rows():
    g = randomize_weights(grid_graph(4, 4), seed=3)
    src = np.array([3, 0])
    mat = multi_source(g, src)
    assert mat.shape == (2, g.n)
    assert np.allclose(mat[0], dijkstra(g, 3))
    assert np.allclose(mat[1], dijkstra(g, 0))


def test_multi_source_empty_inputs():
    assert multi_source(CSRGraph(3, [0], [1]), np.array([], dtype=int)).shape == (0, 3)
    assert multi_source(CSRGraph(0, [], []), np.array([], dtype=int)).shape == (0, 0)


def test_spt_forest_distances():
    g = composite_graph(0)
    src = np.arange(0, g.n, 7)
    dist, pred = spt_forest(g, src)
    for i, s in enumerate(src):
        assert np.allclose(
            np.nan_to_num(dist[i], posinf=-1),
            np.nan_to_num(dijkstra(g, int(s)), posinf=-1),
            atol=1e-9,
        )
        assert pred[i, s] < 0  # roots have the sentinel


def test_cycle_goes_both_ways():
    g = cycle_graph(10)
    d = dijkstra(g, 0)
    assert d[5] == 5.0 and d[9] == 1.0


class TestParentChainGuard:
    """``shortest_path`` must fail loudly on a corrupted parent array
    instead of walking it forever."""

    def test_cycle_in_parents_raises(self, monkeypatch):
        from repro.graph.csr import GraphError
        import importlib

        dj = importlib.import_module("repro.sssp.dijkstra")

        g = path_graph(4)
        dist = np.array([0.0, 1.0, 2.0, 3.0])
        parent = np.array([-1, 2, 1, 2])  # 1 <-> 2 cycle, never reaches 0
        monkeypatch.setattr(
            dj, "dijkstra_tree", lambda g_, s: (dist, parent, parent.copy())
        )
        with pytest.raises(GraphError, match="exceeds"):
            dj.shortest_path(g, 0, 3)

    def test_premature_minus_one_raises(self, monkeypatch):
        from repro.graph.csr import GraphError
        import importlib

        dj = importlib.import_module("repro.sssp.dijkstra")

        g = path_graph(4)
        dist = np.array([0.0, 1.0, 2.0, 3.0])
        parent = np.array([-1, 0, -1, 2])  # chain from 3 dead-ends at 2
        monkeypatch.setattr(
            dj, "dijkstra_tree", lambda g_, s: (dist, parent, parent.copy())
        )
        with pytest.raises(GraphError, match="hit -1"):
            dj.shortest_path(g, 0, 3)

    def test_healthy_tree_unaffected(self):
        from repro.sssp.dijkstra import shortest_path

        g = path_graph(5)
        d, path = shortest_path(g, 0, 4)
        assert d == 4.0 and path == [0, 1, 2, 3, 4]
