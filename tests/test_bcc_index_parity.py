"""Every layer that reads the BCC vertex index against the derivations it
replaced, bit for bit.

``biconnected_components`` builds one vertex index (memberships with local
indices, AP ranks, home blocks) that the component subgraphs, the
component tables and ``A``, the assembly, the block-cut tree, the bulk
index and both oracles read.  Each used to work these facts out on its
own; ``tests/_support.py`` keeps those constructors verbatim.  Every array
must be ``np.array_equal`` to the reference's with the same dtype, every
scalar answer the same float.  The graphs are the QA corpora (all pairs)
and the 15 Table-1 stand-ins at scale 0.02 (20,000 random pairs).
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from _support import (
    ReferenceBlockCutTree,
    ReferenceDistanceOracle,
    ReferenceReducedDistanceOracle,
    reference_assemble_full_matrix,
    reference_build_component_tables,
    reference_component_subgraph,
)
from repro import datasets
from repro.apsp import (
    DistanceOracle,
    ReducedDistanceOracle,
    assemble_full_matrix,
    bcc_apsp,
    build_component_tables,
)
from repro.decomposition import BlockCutTree, biconnected_components
from repro.decomposition.biconnected import BCCDecomposition
from repro.graph import CSRGraph
from repro.graph.stats import table1_row
from repro.hetero import apsp_runner
from repro.qa.strategies import adversarial_corpus, corpus

# ``repro.apsp.bcc_apsp`` the attribute is the function, not its module.
bcc_apsp_module = importlib.import_module("repro.apsp.bcc_apsp")

STANDIN_PAIRS = 20_000
STANDIN_SCALAR_PAIRS = 500


def _same(a, b, what: str) -> None:
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and np.array_equal(a, b), what


def _all_pairs(n: int) -> np.ndarray:
    uu, vv = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.column_stack([uu.ravel(), vv.ravel()]).astype(np.int64)


def _pairs(g: CSRGraph, standin: bool) -> tuple[np.ndarray, np.ndarray]:
    """``(bulk pairs, scalar pairs)``: all pairs on a corpus graph, random
    pairs on a stand-in."""
    if not standin:
        pairs = _all_pairs(g.n)
        return pairs, pairs
    rng = np.random.default_rng(g.n)
    pairs = rng.integers(0, g.n, size=(STANDIN_PAIRS, 2), dtype=np.int64)
    return pairs, pairs[:STANDIN_SCALAR_PAIRS]


def check_subgraphs(g: CSRGraph, bcc: BCCDecomposition) -> None:
    for cid in range(bcc.count):
        sub, vmap = bcc.component_subgraph(g, cid)
        ref, ref_vmap = reference_component_subgraph(bcc, g, cid)
        _same(vmap, ref_vmap, f"vmap {cid}")
        assert sub.n == ref.n
        for name in ("edge_u", "edge_v", "edge_w", "indptr", "indices", "weights", "csr_eid"):
            _same(getattr(sub, name), getattr(ref, name), f"subgraph {cid} {name}")


def check_tables(g: CSRGraph, bcc: BCCDecomposition) -> None:
    """Component tables, ``A`` and the assembly (ear solver; the
    ``all_pairs`` tables are covered by ``bcc_apsp``)."""
    got = build_component_tables(g, bcc=bcc)
    want = reference_build_component_tables(g, bcc=bcc)
    assert len(got.tables) == len(want.tables)
    for cid, (t, r) in enumerate(zip(got.tables, want.tables)):
        _same(t, r, f"table {cid}")
    _same(got.ap_ids, want.ap_ids, "ap_ids")
    _same(got.ap_matrix, want.ap_matrix, "A")
    _same(
        assemble_full_matrix(g, got), reference_assemble_full_matrix(g, want), "assemble"
    )


def check_pipelines(g: CSRGraph, monkeypatch) -> None:
    """``bcc_apsp``, ``apsp_with_trace`` and ``table1_row`` over the current
    layers vs the same entry points over the reference layers."""
    got = {
        "peel": bcc_apsp(g),
        "no-peel": bcc_apsp(g, peel=False),
        "trace-ear": apsp_runner.apsp_with_trace(g, use_ear=True),
        "trace-dijkstra": apsp_runner.apsp_with_trace(g, use_ear=False),
        "table1": table1_row(g),
    }
    with monkeypatch.context() as m:
        for module in (bcc_apsp_module, apsp_runner):
            m.setattr(module, "build_component_tables", reference_build_component_tables)
            m.setattr(module, "assemble_full_matrix", reference_assemble_full_matrix)
        m.setattr(BCCDecomposition, "component_subgraph", reference_component_subgraph)
        want = {
            "peel": bcc_apsp(g),
            "no-peel": bcc_apsp(g, peel=False),
            "trace-ear": apsp_runner.apsp_with_trace(g, use_ear=True),
            "trace-dijkstra": apsp_runner.apsp_with_trace(g, use_ear=False),
            "table1": table1_row(g),
        }
    _same(got["peel"], want["peel"], "bcc_apsp")
    _same(got["no-peel"], want["no-peel"], "bcc_apsp(peel=False)")
    for key in ("trace-ear", "trace-dijkstra"):
        _same(got[key][0], want[key][0], f"{key} matrix")
        assert got[key][1].stages == want[key][1].stages, f"{key} stages"
    assert got["table1"] == want["table1"]


def check_tree(g: CSRGraph, bcc: BCCDecomposition, pairs: np.ndarray) -> None:
    tree, ref = BlockCutTree(g, bcc), ReferenceBlockCutTree(g, bcc)
    assert tree.adj == ref.adj and tree.n_trees == ref.n_trees
    for name in ("ap_ids", "parent", "depth", "tree_id", "_up"):
        _same(getattr(tree, name), getattr(ref, name), f"tree {name}")
    _same(tree.node_for_vertices(), ref.node_for_vertices(), "node_for_vertices")
    for v in range(g.n):
        try:
            want = ref.node_for_vertex(v)
        except KeyError:
            with pytest.raises(KeyError):
                tree.node_for_vertex(v)
            continue
        assert tree.node_for_vertex(v) == want
    # boundary_aps_many reads vertices that lie in some block.
    member = ref.node_for_vertices() >= 0
    pairs = pairs[member[pairs[:, 0]] & member[pairs[:, 1]]]
    if pairs.size:
        for got, want in zip(
            tree.boundary_aps_many(pairs[:, 0], pairs[:, 1]),
            ref.boundary_aps_many(pairs[:, 0], pairs[:, 1]),
        ):
            _same(got, want, "boundary_aps_many")


def check_oracles(g: CSRGraph, pairs: np.ndarray, scalar_pairs: np.ndarray) -> None:
    for cls, ref_cls in (
        (DistanceOracle, ReferenceDistanceOracle),
        (ReducedDistanceOracle, ReferenceReducedDistanceOracle),
    ):
        got, want = cls(g), ref_cls(g)
        name = cls.__name__
        assert got.memory_bytes() == want.memory_bytes(), name
        _same(got.query_many(pairs), want.query_many(pairs), f"{name}.query_many")
        for u, v in scalar_pairs.tolist():
            assert got.query(u, v) == want.query(u, v), (name, u, v)
    _same(got.ap_matrix, want.ap_matrix, "reduced A")


def assert_index_parity(g: CSRGraph, monkeypatch, standin: bool = False) -> None:
    bcc = biconnected_components(g)
    pairs, scalar_pairs = _pairs(g, standin)
    check_subgraphs(g, bcc)
    check_tables(g, bcc)
    check_pipelines(g, monkeypatch)
    check_tree(g, bcc, pairs)
    if g.n:
        check_oracles(g, pairs, scalar_pairs)


def test_index_parity_on_qa_corpus(monkeypatch):
    for name, g in corpus(count=300, seed=0) + adversarial_corpus(seed=3):
        try:
            assert_index_parity(g, monkeypatch)
        except AssertionError as exc:
            raise AssertionError(f"{name}: {exc}") from exc


@pytest.mark.parametrize("name", [spec.name for spec in datasets.TABLE1])
def test_index_parity_on_standins(name, monkeypatch):
    assert_index_parity(datasets.load(name, 0.02), monkeypatch, standin=True)


def test_index_layout():
    """The index's own contract on a graph with an AP shared by three
    blocks, a self-loop on an AP and on a plain vertex, a plain vertex
    whose only block is a self-loop, and an isolated vertex."""
    # Triangle 0-1-2, bridge 2-3, triangle 3-4-5; loops at 2, 4 and 6;
    # vertex 7 isolated; pendant 2-8.
    us = [0, 1, 2, 2, 3, 4, 5, 2, 4, 6, 2]
    vs = [1, 2, 0, 3, 4, 5, 3, 2, 4, 6, 8]
    g = CSRGraph(9, us, vs)
    bcc = biconnected_components(g)
    assert bcc.articulation_points.tolist() == [2, 3]
    assert bcc.ap_rank.tolist() == [-1, -1, 0, 1, -1, -1, -1, -1, -1]
    for v in range(g.n):
        memb = bcc.memberships(v)
        assert [c for c, _ in memb] == sorted(c for c, _ in memb)
        for c, li in memb:
            assert bcc.component_vertices[c][li] == v
        assert sorted(c for c, _ in memb) == sorted(
            c for c in range(bcc.count) if v in bcc.component_vertices[c]
        )
    assert len(bcc.memberships(2)) == 4  # triangle, bridge, pendant, loop
    assert bcc.memberships(7) == []
    sizes = [len(vs) for vs in bcc.component_vertices]
    # The multi-vertex block wins over the self-loop one; a vertex with
    # only a self-loop block lives there; APs and isolated vertices have
    # no home.
    assert sizes[bcc.home[4]] == 3 and 4 in bcc.component_vertices[bcc.home[4]]
    assert bcc.component_vertices[bcc.home[6]].tolist() == [6]
    assert bcc.home[2] == bcc.home[3] == bcc.home[7] == -1
    for v in np.flatnonzero(bcc.home >= 0):
        assert bcc.component_vertices[bcc.home[v]][bcc.home_local[v]] == v
    assert (bcc.home_local[bcc.home < 0] == -1).all()
    ptr, local, rank = bcc.component_aps()
    for c in range(bcc.count):
        verts = bcc.component_vertices[c]
        here = [i for i, v in enumerate(verts) if bcc.is_articulation[v]]
        assert local[ptr[c] : ptr[c + 1]].tolist() == here
        assert rank[ptr[c] : ptr[c + 1]].tolist() == bcc.ap_rank[verts[here]].tolist()
    pairs = [(c, li.tolist(), lj.tolist()) for c, li, lj, _, _ in bcc.ap_pairs()]
    bridge = next(c for c in range(bcc.count) if bcc.component_vertices[c].tolist() == [2, 3])
    assert pairs == [(bridge, [0], [1])]
