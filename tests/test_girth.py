"""Weighted girth and shortest cycles through a vertex, read off Horton's set.

Horton's candidate set holds a minimum-weight cycle (sorted first) and,
for every vertex ``x``, a shortest cycle through ``x`` (the candidate
rooted at ``x`` whose edge joins two different subtrees of ``x``'s
shortest-path tree).  These tests check :func:`repro.mcb.horton_set`
against both facts and against the de Pina basis.
"""

import numpy as np
import pytest

from repro.graph import CSRGraph, complete_graph, gnm_random_graph, path_graph, randomize_weights
from repro.mcb import depina_mcb, horton_set


def girth(g):
    """``(weight, cycle)`` of a lightest cycle, ``(inf, None)`` if acyclic."""
    cycles = horton_set(g)
    if not cycles:
        return float("inf"), None
    return cycles[0].weight, cycles[0]


def through(g, x):
    """A lightest Horton candidate that passes through vertex ``x``."""
    on_x = [
        c for c in horton_set(g)
        if x in g.edge_u[c.edge_ids] or x in g.edge_v[c.edge_ids]
    ]
    return min(on_x, key=lambda c: c.weight, default=None)


@pytest.mark.parametrize("seed", range(5))
def test_girth_equals_lightest_mcb_element(seed):
    g = randomize_weights(gnm_random_graph(16, 28, seed=seed), seed=seed)
    w, cyc = girth(g)
    mcb_min = min(c.weight for c in depina_mcb(g))
    assert w == pytest.approx(mcb_min, rel=1e-9)
    assert cyc.is_valid_cycle(g)
    assert cyc.support_weight(g) == pytest.approx(w)


def test_girth_cycle_graph(ring):
    w, cyc = girth(ring)
    assert w == pytest.approx(ring.total_weight)
    assert len(cyc) == ring.m


def test_girth_unit_k4():
    w, cyc = girth(complete_graph(4))
    assert w == pytest.approx(3.0) and len(cyc) == 3


def test_girth_acyclic():
    w, cyc = girth(path_graph(5))
    assert np.isinf(w) and cyc is None


def test_girth_self_loop_wins():
    g = CSRGraph(3, [0, 1, 2, 1], [1, 2, 0, 1], [1, 1, 1, 0.4])
    w, cyc = girth(g)
    assert w == pytest.approx(0.4)
    assert len(cyc) == 1


def test_through_vertex_specific():
    # two triangles sharing vertex 2; cheap one on {2,3,4}
    g = CSRGraph(5, [0, 1, 2, 2, 3, 4], [1, 2, 0, 3, 4, 2],
                 [5, 5, 5, 1, 1, 1])
    c0 = through(g, 0)
    assert c0.weight == pytest.approx(15.0)
    c3 = through(g, 3)
    assert c3.weight == pytest.approx(3.0)
    c2 = through(g, 2)
    assert c2.weight == pytest.approx(3.0)


def test_through_vertex_not_on_any_cycle():
    # pendant vertex attached to a triangle
    g = CSRGraph(4, [0, 1, 2, 0], [1, 2, 0, 3])
    assert through(g, 3) is None


def test_through_all_vertices_brute(ring):
    for x in range(ring.n):
        c = through(ring, x)
        assert c.weight == pytest.approx(ring.total_weight)
