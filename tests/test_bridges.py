"""Bridges read off the biconnected components, checked against networkx.

A bridge is a one-edge biconnected component whose edge is not a
self-loop; :func:`_support.bridge_mask` reads them that way, so these
tests pin down how :func:`repro.decomposition.biconnected_components`
splits bridges, parallel edges and self-loops.
"""

import networkx as nx
import numpy as np
import pytest

from repro.graph import CSRGraph, from_networkx, path_graph, to_networkx

from _support import bridge_mask, composite_graph


@pytest.mark.parametrize("seed", range(6))
def test_bridges_match_networkx(seed):
    g = composite_graph(seed)
    G = to_networkx(g)
    if G.is_multigraph():
        # multigraph parallels make pairwise comparison ambiguous; compare
        # on the simplified graph instead
        G = nx.Graph(G)
        g = from_networkx(G)
    mask = bridge_mask(g)
    ours = {
        (min(int(g.edge_u[e]), int(g.edge_v[e])), max(int(g.edge_u[e]), int(g.edge_v[e])))
        for e in np.nonzero(mask)[0]
    }
    theirs = {(min(u, v), max(u, v)) for u, v in nx.bridges(G)}
    assert ours == theirs


def test_path_all_bridges():
    g = path_graph(6)
    assert bridge_mask(g).all()


def test_cycle_no_bridges(ring):
    assert not bridge_mask(ring).any()


def test_parallel_edges_not_bridges():
    g = CSRGraph(3, [0, 0, 1], [1, 1, 2])
    mask = bridge_mask(g)
    assert not mask[0] and not mask[1]
    assert mask[2]


def test_self_loop_not_bridge():
    g = CSRGraph(2, [0, 0], [0, 1])
    mask = bridge_mask(g)
    assert not mask[0] and mask[1]
