"""``reduce_graph`` against the per-chain loop it replaced, bit for bit.

Reduced edge ids feed ``simplify``, the Mehlhorn–Michail tie-breaks and
the benchmark's output checks, so the flat chain walk must reproduce the
reference loop exactly: chain order, orientation, per-chain prefix sums
(``np.cumsum`` order) and every dtype.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro import datasets
from repro.decomposition import Chain, biconnected_components, reduce_graph
from repro.graph import CSRGraph
from repro.qa.strategies import adversarial_corpus, corpus

VERTEX_ARRAYS = (
    "kept_mask",
    "kept_ids",
    "reduced_id",
    "chain_of",
    "pos_in_chain",
    "dist_left",
    "dist_right",
    "chain_left_rid",
    "chain_right_rid",
    "chain_weight",
)
GRAPH_ARRAYS = ("edge_u", "edge_v", "edge_w", "indptr", "indices", "weights", "csr_eid", "degree")


def reference_reduce(g: CSRGraph, keep: np.ndarray | None = None) -> SimpleNamespace:
    """The chain-by-chain loop ``reduce_graph`` used to run."""
    n = g.n
    deg = g.degree
    if keep is None:
        keep = np.zeros(n, dtype=bool)
    else:
        keep = np.asarray(keep, dtype=bool).copy()
    keep |= deg != 2
    if g.m and g.has_self_loops:
        keep[g.edge_u[g.edge_u == g.edge_v]] = True
    keep = reference_promote_cycle_anchors(g, keep)

    kept_ids = np.nonzero(keep)[0]
    reduced_id = np.full(n, -1, dtype=np.int64)
    reduced_id[kept_ids] = np.arange(kept_ids.size)

    indptr, indices, eids = g.indptr, g.indices, g.csr_eid
    edge_w = g.edge_w
    edge_done = np.zeros(g.m, dtype=bool)

    chains: list[Chain] = []
    chain_of = np.full(n, -1, dtype=np.int64)
    pos_in_chain = np.full(n, -1, dtype=np.int64)
    dist_left = np.zeros(n, dtype=np.float64)
    dist_right = np.zeros(n, dtype=np.float64)
    r_us: list[int] = []
    r_vs: list[int] = []
    r_ws: list[float] = []

    for u in kept_ids:
        for slot in range(indptr[u], indptr[u + 1]):
            eid = int(eids[slot])
            if edge_done[eid]:
                continue
            v = int(indices[slot])
            chain_v = [int(u), v]
            chain_e = [eid]
            edge_done[eid] = True
            prev_eid = eid
            cur = v
            while not keep[cur]:
                s = indptr[cur]
                e0, e1 = int(eids[s]), int(eids[s + 1])
                nxt_eid = e1 if e0 == prev_eid else e0
                nxt_slot = s + (1 if e0 == prev_eid else 0)
                cur = int(indices[nxt_slot])
                chain_e.append(nxt_eid)
                chain_v.append(cur)
                edge_done[nxt_eid] = True
                prev_eid = nxt_eid
            verts = np.asarray(chain_v, dtype=np.int64)
            edges_arr = np.asarray(chain_e, dtype=np.int64)
            prefix = np.concatenate([[0.0], np.cumsum(edge_w[edges_arr])])
            cid = len(chains)
            chains.append(Chain(vertices=verts, edges=edges_arr, prefix=prefix))
            interior = verts[1:-1]
            if interior.size:
                chain_of[interior] = cid
                pos_in_chain[interior] = np.arange(1, verts.size - 1)
                dist_left[interior] = prefix[1:-1]
                dist_right[interior] = prefix[-1] - prefix[1:-1]
            r_us.append(int(reduced_id[verts[0]]))
            r_vs.append(int(reduced_id[verts[-1]]))
            r_ws.append(float(prefix[-1]))

    return SimpleNamespace(
        graph=CSRGraph(kept_ids.size, r_us, r_vs, r_ws),
        kept_mask=keep,
        kept_ids=kept_ids,
        reduced_id=reduced_id,
        chains=chains,
        chain_of=chain_of,
        pos_in_chain=pos_in_chain,
        dist_left=dist_left,
        dist_right=dist_right,
        chain_left_rid=np.asarray(r_us, dtype=np.int64),
        chain_right_rid=np.asarray(r_vs, dtype=np.int64),
        chain_weight=np.asarray(r_ws, dtype=np.float64),
    )


def reference_promote_cycle_anchors(g: CSRGraph, keep: np.ndarray) -> np.ndarray:
    """Walk every degree-2 run; pin the smallest id of each closed one."""
    indptr, indices, eids = g.indptr, g.indices, g.csr_eid
    visited = keep.copy()
    for start in range(g.n):
        if visited[start] or g.degree[start] != 2:
            continue
        run = [start]
        visited[start] = True
        prev_eid = -1
        cur = start
        closed = True
        while True:
            s = indptr[cur]
            e0, e1 = int(eids[s]), int(eids[s + 1])
            nxt_eid = e1 if e0 == prev_eid else e0
            nxt_slot = s + (1 if e0 == prev_eid else 0)
            nxt = int(indices[nxt_slot])
            if nxt == start and nxt_eid != prev_eid:
                break
            if keep[nxt]:
                closed = False
                break
            run.append(nxt)
            visited[nxt] = True
            prev_eid = nxt_eid
            cur = nxt
        if closed:
            keep[min(run)] = True
    return keep


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_parity(g: CSRGraph, keep: np.ndarray | None = None, label: str = "") -> None:
    red = reduce_graph(g, keep=keep)
    ref = reference_reduce(g, keep)
    for name in VERTEX_ARRAYS:
        assert _same(getattr(red, name), getattr(ref, name)), (label, name)
    assert (red.graph.n, red.graph.m) == (ref.graph.n, ref.graph.m), label
    for name in GRAPH_ARRAYS:
        assert _same(getattr(red.graph, name), getattr(ref.graph, name)), (label, "graph", name)
    assert len(red.chains) == len(ref.chains), label
    for c, (got, want) in enumerate(zip(red.chains, ref.chains)):
        for name in ("vertices", "edges", "prefix"):
            assert _same(getattr(got, name), getattr(want, name)), (label, c, name)


def test_parity_on_qa_corpus():
    graphs = corpus(count=400, seed=0) + adversarial_corpus(seed=3)
    for name, g in graphs:
        assert_parity(g, label=name)


@pytest.mark.parametrize("spec", datasets.TABLE1, ids=lambda s: s.name)
def test_parity_on_table1_standins_with_bcc_keep_masks(spec):
    g = spec.generate(0.02)
    assert_parity(g, label=spec.name)
    bcc = biconnected_components(g)
    for cid in range(bcc.count):
        sub, _ = bcc.component_subgraph(g, cid)
        assert_parity(sub, bcc.component_keep_mask(g, cid), label=f"{spec.name}/bcc{cid}")


def _ring(n: int, chord: bool) -> CSRGraph:
    u = np.arange(n)
    v = (u + 1) % n
    w = np.random.default_rng(n).uniform(0.5, 2.0, n)
    if chord:
        u, v, w = np.append(u, 0), np.append(v, n // 2), np.append(w, 1.0)
    return CSRGraph(n, u, v, w)


@pytest.mark.parametrize("chord", [True, False], ids=["ring-with-chord", "pure-cycle"])
def test_parity_on_long_rings(chord):
    assert_parity(_ring(20_000, chord), label=f"ring chord={chord}")
