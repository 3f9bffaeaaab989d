"""``MMContext`` set-up and scan against the loops they replaced, bit for bit.

The candidate arrays decide the weight ranks, and so which cycle each
phase selects, the per-phase ``tested`` counts and the hetero work trace
sized from them.  The whole-array set-up must therefore reproduce the
reference loops exactly — every exposed array and dtype (the candidate
arrays in the reference's own stable weight order), the flattened level
schedule — and the flat-index scan predicate must return the same mask on
every window of a full run.
"""

from __future__ import annotations

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro import datasets
from repro.decomposition import biconnected_components, reduce_graph
from repro.graph import CSRGraph
from repro.mcb import gf2
from repro.mcb.fvs import greedy_fvs
from repro.mcb.horton import perturbed_weights
from repro.mcb.mehlhorn_michail import MMContext
from repro.mcb.spanning import spanning_structure
from repro.qa.strategies import adversarial_corpus, corpus
from repro.sssp.engine import spt_forest

_NO_PRED = -9999

ARRAYS = ("fvs", "dist", "parent", "depth", "parent_eid", "parent_ep")
CAND_ARRAYS = ("cand_z", "cand_e", "cand_u", "cand_v", "cand_w", "cand_ep")


def reference_context(g: CSRGraph, lca_filter: bool = True) -> SimpleNamespace:
    """The pair dict, per-tree tables and per-(tree, edge) candidate loop
    ``MMContext`` used to run (perturbed weights), walked on Python lists."""
    ref = SimpleNamespace(n=g.n)
    ss = spanning_structure(g)
    ep_of_edge = ss.eprime_index.tolist()
    ref.fvs = greedy_fvs(g)
    pw = perturbed_weights(g)
    ref.dist, ref.parent = spt_forest(g.with_weights(pw), ref.fvs)
    eu, ev, pwl = g.edge_u.tolist(), g.edge_v.tolist(), pw.tolist()

    pair_edge: dict[tuple[int, int], int] = {}
    for e in np.argsort(pw)[::-1].tolist():  # heavier first so lightest wins last
        u, v = eu[e], ev[e]
        if u != v:
            pair_edge[(min(u, v), max(u, v))] = e

    # Tree tables: depth and parent edge in dist order, tree by tree.
    k, n = ref.parent.shape
    ref.depth = np.full((k, n), -1, dtype=np.int64)
    ref.parent_ep = np.full((k, n), -1, dtype=np.int64)
    ref.parent_eid = np.full((k, n), -1, dtype=np.int64)
    for zi in range(k):
        par = ref.parent[zi].tolist()
        root = int(ref.fvs[zi])
        reachable = np.isfinite(ref.dist[zi]).tolist()
        depth, peid, pep = [-1] * n, [-1] * n, [-1] * n
        depth[root] = 0
        for v in np.argsort(ref.dist[zi], kind="stable").tolist():
            if v == root or not reachable[v]:
                continue
            p = par[v]
            if p == _NO_PRED:
                continue
            depth[v] = depth[p] + 1
            peid[v] = pair_edge[(min(v, p), max(v, p))]
            pep[v] = ep_of_edge[peid[v]]
        ref.depth[zi], ref.parent_eid[zi], ref.parent_ep[zi] = depth, peid, pep
    max_depth = int(ref.depth.max()) if ref.depth.size else 0
    ref.flat_levels = []
    flat_parent = np.where(ref.parent == _NO_PRED, 0, ref.parent) + (np.arange(k)[:, None] * n)
    for d in range(1, max_depth + 1):
        sel = np.nonzero(ref.depth.reshape(-1) == d)[0]
        if sel.size:
            ref.flat_levels.append((sel, flat_parent.reshape(-1)[sel]))

    # Candidate family: self-loops, then every (tree, chord) pair.
    cz, ce, cu, cv, cw = [], [], [], [], []
    for e in range(g.m):
        if eu[e] == ev[e]:
            cz.append(-1)
            ce.append(e)
            cu.append(eu[e])
            cv.append(eu[e])
            cw.append(pwl[e])
    for zi in range(k):
        dist, depth = ref.dist[zi].tolist(), ref.depth[zi].tolist()
        par, peid = ref.parent[zi].tolist(), ref.parent_eid[zi].tolist()
        root = int(ref.fvs[zi])
        for e in range(g.m):
            u, v = eu[e], ev[e]
            if u == v:
                continue
            if not (math.isfinite(dist[u]) and math.isfinite(dist[v])):
                continue
            if peid[u] == e or peid[v] == e:
                continue  # tree arc of T_z: not a candidate chord
            if lca_filter and reference_lca(par, depth, u, v) != root:
                continue
            cz.append(zi)
            ce.append(e)
            cu.append(u)
            cv.append(v)
            cw.append(dist[u] + pwl[e] + dist[v])
    ref.cand_z = np.asarray(cz, dtype=np.int64)
    ref.cand_e = np.asarray(ce, dtype=np.int64)
    ref.cand_u = np.asarray(cu, dtype=np.int64)
    ref.cand_v = np.asarray(cv, dtype=np.int64)
    ref.cand_w = np.asarray(cw, dtype=np.float64)
    ref.cand_ep = ss.eprime_index[ref.cand_e]
    ref.order = np.argsort(ref.cand_w, kind="stable")
    return ref


def reference_lca(par: list[int], depth: list[int], u: int, v: int) -> int:
    a, b = u, v
    da, db = depth[a], depth[b]
    while da > db:
        a = par[a]
        da -= 1
    while db > da:
        b = par[b]
        db -= 1
    while a != b:
        a = par[a]
        b = par[b]
    return a


def reference_predicate(ctx, labels: np.ndarray, s_pad: np.ndarray):
    """The 2-D-gather orthogonality test the flat-index scan replaced."""

    def predicate(ids: np.ndarray) -> np.ndarray:
        z = ctx.cand_z[ids]
        parity = s_pad[ctx.cand_ep[ids]].copy()
        tree = z >= 0
        if tree.any():
            zt = z[tree]
            parity[tree] ^= (
                labels[zt, ctx.cand_u[ids][tree]] ^ labels[zt, ctx.cand_v[ids][tree]]
            )
        return parity == 1

    return predicate


def _same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_setup_parity(g: CSRGraph, lca_filter: bool, label: str) -> MMContext | None:
    ctx = MMContext(g, lca_filter=lca_filter)
    if ctx.f == 0:
        return None
    ref = reference_context(g, lca_filter)
    for name in ARRAYS:
        assert _same(getattr(ctx, name), getattr(ref, name)), (label, lca_filter, name)
    for name in CAND_ARRAYS:
        want = getattr(ref, name)[ref.order]
        assert _same(getattr(ctx, name), want), (label, lca_filter, name)
    assert len(ctx._flat_levels) == len(ref.flat_levels), label
    for d, (got, want) in enumerate(zip(ctx._flat_levels, ref.flat_levels)):
        assert _same(got[0], want[0]) and _same(got[1], want[1]), (label, d)
    return ctx


def assert_scan_parity(ctx: MMContext, label: str) -> None:
    """A full Mehlhorn–Michail run checking the predicate on every window."""
    store = ctx.new_store()
    witnesses = gf2.identity(ctx.f)
    for i in range(ctx.f):
        s_pad = ctx.witness_edge_bits(witnesses[i])
        labels = ctx.compute_labels(s_pad)
        fast = ctx.scan_predicate(labels, s_pad)
        slow = reference_predicate(ctx, labels, s_pad)

        def both(win):
            got = fast(win)
            assert _same(got, slow(np.arange(win.start, win.stop))), (label, i)
            return got

        cand = store.scan_and_remove(both)
        assert cand is not None, (label, i)
        _, c_vec = ctx.reconstruct(cand)
        ctx.update_witnesses(witnesses, i, c_vec)


def _check(g: CSRGraph, label: str, scan: bool = True) -> None:
    for lca_filter in (True, False):
        ctx = assert_setup_parity(g, lca_filter, label)
        if scan and ctx is not None:
            assert_scan_parity(ctx, f"{label} lca_filter={lca_filter}")


def test_parity_on_qa_corpus():
    for name, g in corpus(300) + adversarial_corpus(3):
        _check(g, name)


# table2-mcb's graph (spec seed and seed 101) also runs every scan window
# twice; the two larger stand-ins check the set-up only, to keep this fast.
@pytest.mark.parametrize(
    "dataset, seed, scan",
    [
        ("as-22july06", None, True),
        ("as-22july06", 101, True),
        ("Wordnet3", None, False),
        ("cond_mat_2003", None, False),
    ],
    ids=lambda x: str(x),
)
def test_parity_on_cyclic_bccs_full_and_reduced(dataset, seed, scan):
    spec = next(s for s in datasets.TABLE1 if s.name == dataset)
    if seed is not None:
        spec = dataclasses.replace(spec, seed=seed)
    g = spec.generate(0.02)
    bcc = biconnected_components(g)
    for cid in range(bcc.count):
        sub, _ = bcc.component_subgraph(g, cid)
        if sub.cycle_space_dimension() == 0:
            continue
        _check(sub, f"{dataset}/bcc{cid}", scan)
        _check(reduce_graph(sub).graph, f"{dataset}/bcc{cid}/reduced", scan)
