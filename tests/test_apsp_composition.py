"""Per-BCC tables, articulation-point closure, full-matrix assembly."""

import numpy as np
import pytest

from repro.apsp import (
    assemble_full_matrix,
    build_component_tables,
    dijkstra_apsp,
)
from repro.graph import CSRGraph, path_graph
from repro.sssp import all_pairs

from _support import close, composite_graph


@pytest.mark.parametrize("seed", range(6))
def test_assembled_matrix_exact(seed):
    g = composite_graph(seed)
    ct = build_component_tables(g)
    assert close(assemble_full_matrix(g, ct), dijkstra_apsp(g))


def test_custom_solver_is_used():
    calls = []

    def spy(sub):
        calls.append(sub.n)
        return all_pairs(sub)

    g = composite_graph(0)
    ct = build_component_tables(g, solver=spy)
    assert len(calls) == ct.bcc.count
    assert close(assemble_full_matrix(g, ct), dijkstra_apsp(g))


def test_ap_matrix_exactness():
    g = composite_graph(2)
    ct = build_component_tables(g)
    ref = dijkstra_apsp(g)
    aps = ct.ap_ids
    for i, a in enumerate(aps):
        for j, b in enumerate(aps):
            assert np.isclose(
                np.nan_to_num(ct.ap_matrix[i, j], posinf=-1),
                np.nan_to_num(ref[a, b], posinf=-1),
                atol=1e-9,
            )


def test_ap_matrix_symmetric_zero_diagonal():
    g = composite_graph(4)
    ct = build_component_tables(g)
    A = ct.ap_matrix
    assert (np.diag(A) == 0).all()
    assert np.allclose(np.nan_to_num(A, posinf=-1), np.nan_to_num(A.T, posinf=-1))


def test_no_articulation_points():
    from _support import biconnected_weighted

    g = biconnected_weighted(1, n=15, extra=10)
    ct = build_component_tables(g)
    assert ct.ap_matrix.shape == (0, 0)
    assert close(assemble_full_matrix(g, ct), dijkstra_apsp(g))


def test_path_graph_all_bridges():
    g = path_graph(6)
    ct = build_component_tables(g)
    assert ct.bcc.count == 5
    assert len(ct.ap_ids) == 4
    assert close(assemble_full_matrix(g, ct), dijkstra_apsp(g))


def test_vertex_local_memberships():
    # The tables read memberships from the decomposition's vertex index:
    # (component, local index) in ascending component order, the local
    # index being the vertex's position in component_vertices.
    g = CSRGraph(5, [0, 1, 2], [1, 2, 3])  # path 0-1-2-3, vertex 4 isolated
    bcc = build_component_tables(g).bcc
    assert len(bcc.memberships(1)) == 2  # AP in two blocks
    assert len(bcc.memberships(0)) == 1
    assert bcc.memberships(4) == []
    for v in range(g.n):
        comps = [c for c, _ in bcc.memberships(v)]
        assert comps == sorted(comps)
        for c, li in bcc.memberships(v):
            assert bcc.component_vertices[c][li] == v


def test_table_bytes_model():
    g = composite_graph(0)
    ct = build_component_tables(g)
    expected = sum(t.size for t in ct.tables) + ct.ap_matrix.size
    assert ct.table_bytes(4) == expected * 4
    assert ct.table_bytes(8) == expected * 8


def test_shared_ap_pair_across_two_components():
    # two vertices that are both APs and share two different blocks:
    # u - v parallel structure through two separate squares + pendant to
    # make them APs.
    edges = [
        (0, 2), (2, 1), (0, 3), (3, 1),  # block A (cycle 0-2-1-3)
        (0, 4), (4, 1), (0, 5), (5, 1),  # block B (cycle 0-4-1-5)
        (0, 6), (1, 7),                   # pendants making 0 and 1 APs
    ]
    g = CSRGraph(8, [e[0] for e in edges], [e[1] for e in edges])
    # NB: blocks A and B actually merge into one BCC (0 and 1 stay
    # biconnected through both squares) — the point is the assembly stays
    # exact in the presence of dense AP sharing.
    ct = build_component_tables(g)
    assert close(assemble_full_matrix(g, ct), dijkstra_apsp(g))
