"""Block-cut tree structure, LCA, and boundary articulation points."""

import networkx as nx
import pytest

from repro.decomposition import BlockCutTree, biconnected_components
from repro.graph import CSRGraph, path_graph, to_networkx

from _support import composite_graph


def build(g):
    bcc = biconnected_components(g)
    return BlockCutTree(g, bcc), bcc


def test_node_counts():
    g = path_graph(4)  # 3 blocks, 2 cuts
    tree, bcc = build(g)
    assert tree.n_blocks == 3
    assert tree.n_nodes == 5


def test_forest_structure_is_tree_per_component():
    g = composite_graph(0)
    tree, _ = build(g)
    # edges in a forest: nodes - trees
    n_edges = sum(len(a) for a in tree.adj) // 2
    assert n_edges == tree.n_nodes - tree.n_trees


def test_node_for_vertex():
    g = path_graph(4)
    tree, bcc = build(g)
    assert tree.node_for_vertex(1) >= tree.n_blocks  # AP -> cut node
    assert tree.node_for_vertex(0) < tree.n_blocks   # leaf -> block node


def test_isolated_vertex_raises():
    g = CSRGraph(3, [0], [1])
    tree, _ = build(g)
    with pytest.raises(KeyError):
        tree.node_for_vertex(2)


def test_lca_depth_consistency():
    g = composite_graph(2)
    tree, _ = build(g)
    for a in range(0, tree.n_nodes, 3):
        for b in range(0, tree.n_nodes, 5):
            anc = tree.lca(a, b)
            if tree.tree_id[a] != tree.tree_id[b]:
                assert anc == -1
            else:
                assert anc >= 0
                assert tree.depth[anc] <= min(tree.depth[a], tree.depth[b])


def _brute_force_bracket(g, u, v):
    """All vertices whose removal separates u from v, via networkx."""
    G = to_networkx(g)
    if G.is_multigraph():
        G = nx.Graph(G)
    seps = []
    for w in G.nodes:
        if w in (u, v):
            continue
        H = G.copy()
        H.remove_node(w)
        if not nx.has_path(H, u, v):
            seps.append(w)
    return set(seps)


@pytest.mark.parametrize("seed", [0, 2, 4])
def test_boundary_aps_are_separators(seed):
    g = composite_graph(seed, n=14, m=20)
    tree, bcc = build(g)
    import numpy as np

    rng = np.random.default_rng(seed)
    checked = 0
    for _ in range(60):
        u, v = rng.integers(0, g.n, size=2)
        u, v = int(u), int(v)
        if u == v or g.degree[u] == 0 or g.degree[v] == 0:
            continue
        try:
            bracket = tree.boundary_aps(u, v)
        except ValueError:
            continue  # different connected components
        seps = _brute_force_bracket(g, u, v)
        if bracket is None:
            # same block: no forced separator between u and v exists...
            # unless the block is a bridge edge (no interior).
            continue
        a1, a2 = bracket
        assert a1 in seps or a1 in (u, v)
        assert a2 in seps or a2 in (u, v)
        checked += 1
    assert checked > 5


def test_same_block_returns_none(grid):
    tree, _ = build(grid)
    assert tree.boundary_aps(0, 5) is None


def test_adjacent_blocks_share_ap():
    g = path_graph(3)  # blocks 0-1 and 1-2, AP at 1
    tree, _ = build(g)
    assert tree.boundary_aps(0, 2) == (1, 1)


def test_disconnected_raises():
    g = CSRGraph(4, [0, 2], [1, 3])
    tree, _ = build(g)
    with pytest.raises(ValueError):
        tree.boundary_aps(0, 2)
