"""Degree-2 chain contraction: structure, anchors, distances."""

import numpy as np
import pytest

from repro.decomposition import reduce_graph
from repro.graph import (
    CSRGraph,
    GraphError,
    cycle_graph,
    grid_graph,
    path_graph,
    randomize_weights,
    subdivide_edges,
)
from repro.sssp import dijkstra

from _support import biconnected_weighted, composite_graph


@pytest.mark.parametrize("seed", range(6))
def test_validate_on_composites(seed):
    red = reduce_graph(composite_graph(seed))
    red.validate()


@pytest.mark.parametrize("seed", range(4))
def test_validate_on_subdivided_biconnected(seed):
    g = subdivide_edges(biconnected_weighted(seed), 0.6, seed=seed)
    red = reduce_graph(g)
    red.validate()
    assert red.n_removed > 0


def test_no_degree2_is_identity_like():
    from repro.graph import complete_graph

    g = complete_graph(6)  # all degrees 5
    red = reduce_graph(g)
    assert red.n_removed == 0
    assert red.graph.n == g.n
    assert red.graph.m == g.m
    red.validate()


def test_all_interior_removed():
    base = grid_graph(4, 4)
    g = subdivide_edges(base, 0.8, seed=1)
    red = reduce_graph(g)
    # every inserted vertex plus the grid's four degree-2 corners go
    n_corners = int((base.degree == 2).sum())
    assert red.n_removed == (g.n - base.n) + n_corners
    assert red.removal_fraction == pytest.approx(red.n_removed / g.n)


def test_chain_weight_equals_edge_weight():
    g = randomize_weights(subdivide_edges(grid_graph(3, 3), 1.0, seed=2), seed=2)
    red = reduce_graph(g)
    for eid, chain in enumerate(red.chains):
        assert np.isclose(chain.weight, red.graph.edge_w[eid])
        assert np.isclose(chain.weight, g.edge_w[chain.edges].sum())


def test_anchor_distances():
    # path a - x1 - x2 - b with explicit weights
    g = CSRGraph(4, [0, 1, 2], [1, 2, 3], [1.0, 2.0, 4.0])
    red = reduce_graph(g)
    # endpoints have degree 1, interior degree 2
    assert not red.kept_mask[1] and not red.kept_mask[2]
    assert red.dist_left[1] == 1.0 and red.dist_right[1] == 6.0
    assert red.dist_left[2] == 3.0 and red.dist_right[2] == 4.0
    assert red.left_anchor(1) == 0 and red.right_anchor(2) == 3


def test_anchors_reject_kept_vertices():
    # path 0-1-2-3 plus triangle 3-4-5: 0 (degree 1) and 3 (degree 3) stay
    g = CSRGraph(6, [0, 1, 2, 3, 4, 5], [1, 2, 3, 4, 5, 3])
    red = reduce_graph(g)
    assert red.kept_mask[0] and red.kept_mask[3]
    assert red.left_anchor(1) == 0 and red.right_anchor(2) == 3
    for x in (0, 3):
        with pytest.raises(GraphError):
            red.left_anchor(x)
        with pytest.raises(GraphError):
            red.right_anchor(x)


def test_chain_views_are_read_only():
    g = CSRGraph(4, [0, 1, 2], [1, 2, 3], [1.0, 2.0, 3.0])
    chain = reduce_graph(g).chains[0]
    for arr in (chain.vertices, chain.edges, chain.prefix):
        with pytest.raises(ValueError):
            arr[0] = arr[-1]


def test_pure_cycle_becomes_self_loop(ring):
    red = reduce_graph(ring)
    red.validate()
    assert red.graph.n == 1
    assert red.graph.m == 1
    assert red.graph.has_self_loops
    assert np.isclose(red.graph.edge_w[0], ring.total_weight)


def test_two_disjoint_cycles():
    g = CSRGraph(6, [0, 1, 2, 3, 4, 5], [1, 2, 0, 4, 5, 3])
    red = reduce_graph(g)
    red.validate()
    assert red.graph.n == 2 and red.graph.m == 2
    assert red.graph.has_self_loops


def test_parallel_chains_become_multigraph():
    # theta graph: two vertices joined by three chains of degree-2 nodes
    edges = []
    nxt = 2
    for _ in range(3):
        edges.append((0, nxt))
        edges.append((nxt, 1))
        nxt += 1
    g = CSRGraph(5, [e[0] for e in edges], [e[1] for e in edges])
    red = reduce_graph(g)
    red.validate()
    assert red.graph.n == 2
    assert red.graph.m == 3
    assert red.graph.has_parallel_edges


def test_loop_vertex_always_kept():
    # degree-2 vertex whose edges are a single self-loop
    g = CSRGraph(3, [0, 1, 1], [1, 2, 1])
    red = reduce_graph(g)
    red.validate()
    assert red.kept_mask[1]


def test_keep_pinning():
    g = path_graph(5)
    keep = np.zeros(5, dtype=bool)
    keep[2] = True  # pin the middle vertex
    red = reduce_graph(g, keep=keep)
    red.validate()
    assert red.kept_mask[2]
    assert red.graph.n == 3  # endpoints + pinned middle


def test_keep_mask_wrong_shape_rejected(grid):
    with pytest.raises(GraphError):
        reduce_graph(grid, keep=np.zeros(3, dtype=bool))


def test_simple_graph_view_caches():
    g = subdivide_edges(cycle_graph(4), 1.0, seed=3)
    red = reduce_graph(g)
    assert red.simple_graph() is red.simple_graph()


def test_reduced_graph_preserves_kept_distances():
    for seed in range(4):
        g = subdivide_edges(biconnected_weighted(seed, n=20, extra=12), 0.5, seed=seed)
        red = reduce_graph(g)
        simple = red.simple_graph()
        # distance between kept vertices is identical in G and G^r
        src_r = 0
        src_g = int(red.kept_ids[src_r])
        d_r = dijkstra(simple, src_r)
        d_g = dijkstra(g, src_g)
        for r_id, g_id in enumerate(red.kept_ids):
            assert np.isclose(d_r[r_id], d_g[g_id], atol=1e-9), (seed, g_id)


def test_expand_cycle_concatenates_chains():
    g = subdivide_edges(cycle_graph(5), 1.0, seed=4)
    red = reduce_graph(g)
    eids = red.expand_cycle(np.arange(red.graph.m))
    assert sorted(eids.tolist()) == list(range(g.m))
    assert red.expand_cycle([]).size == 0


def test_isolated_vertices_kept():
    g = CSRGraph(4, [0], [1])
    red = reduce_graph(g)
    red.validate()
    assert red.kept_mask[2] and red.kept_mask[3]
