"""Mehlhorn–Michail internals: Algorithm-3 labels, candidates, updates."""

import numpy as np
import pytest

from repro.graph import CSRGraph, gnm_random_graph, randomize_weights
from repro.mcb import gf2
from repro.mcb.mehlhorn_michail import MMContext, mm_mcb

from _support import biconnected_weighted


@pytest.fixture(scope="module")
def ctx():
    g = randomize_weights(gnm_random_graph(24, 44, seed=3), seed=3)
    return MMContext(g)


def brute_force_label(ctx, zi, u, s_pad):
    """Parity of the witness over E' edges on the tree path root→u."""
    par = ctx.parent[zi]
    root = int(ctx.fvs[zi])
    parity = 0
    cur = int(u)
    if ctx.depth[zi, cur] < 0:
        return 0
    while cur != root:
        ep = int(ctx.parent_ep[zi, cur])
        if ep >= 0:
            parity ^= int(s_pad[ep])
        cur = int(par[cur])
    return parity


def test_labels_equal_bruteforce_parity(ctx):
    rng = np.random.default_rng(0)
    for _ in range(5):
        bits = rng.integers(0, 2, ctx.f).astype(bool)
        s_pad = ctx.witness_edge_bits(gf2.pack(bits))
        labels = ctx.compute_labels(s_pad)
        for zi in range(len(ctx.fvs)):
            for u in range(ctx.n):
                assert labels[zi, u] == brute_force_label(ctx, zi, u, s_pad), (zi, u)


def test_labels_zero_witness_all_zero(ctx):
    s_pad = ctx.witness_edge_bits(gf2.zeros(ctx.f))
    assert not ctx.compute_labels(s_pad).any()


def labels_for_tree(ctx, zi, s_pad):
    """Algorithm 3 on one tree ``T_z``: gather the witness bit of each
    parent edge (``c_z``), then a level-order prefix-xor per depth."""
    c = s_pad[ctx.parent_ep[zi]]
    labels = np.zeros(ctx.n, dtype=np.uint8)
    par, depth = ctx.parent[zi], ctx.depth[zi]
    for d in range(1, int(depth.max()) + 1):
        level = np.nonzero(depth == d)[0]
        labels[level] = labels[par[level]] ^ c[level]
    return labels


def test_flat_levels_match_per_tree_path(ctx):
    rng = np.random.default_rng(1)
    bits = rng.integers(0, 2, ctx.f).astype(bool)
    s_pad = ctx.witness_edge_bits(gf2.pack(bits))
    flat = ctx.compute_labels(s_pad)
    per_tree = np.stack(
        [labels_for_tree(ctx, zi, s_pad) for zi in range(len(ctx.fvs))]
    )
    assert np.array_equal(flat, per_tree)


def test_candidate_weights_sorted_by_order(ctx):
    w = ctx.cand_w  # a candidate's id is its weight rank
    assert (np.diff(w) >= -1e-12).all()


def test_candidates_cover_cycle_space(ctx):
    """Greedy over the candidate family must reach full rank."""
    rows = []
    for cid in range(len(ctx.cand_e)):
        _, vec = ctx.reconstruct(cid)
        rows.append(vec)
    mat = np.stack(rows)
    assert gf2.rank(mat) == ctx.f


def test_reconstruct_weights_true_not_perturbed(ctx):
    g = ctx.graph
    for cid in range(min(20, len(ctx.cand_e))):
        cyc, _ = ctx.reconstruct(cid)
        assert cyc.weight == pytest.approx(cyc.support_weight(g), rel=1e-12)


def test_scan_predicate_matches_vector_dot(ctx):
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2, ctx.f).astype(bool)
    packed = gf2.pack(bits)
    s_pad = ctx.witness_edge_bits(packed)
    labels = ctx.compute_labels(s_pad)
    pred = ctx.scan_predicate(labels, s_pad)
    win = slice(0, 64)
    ids = np.arange(len(ctx.cand_e))[win]
    fast = pred(win)
    slow = np.array(
        [gf2.dot(ctx.reconstruct(int(c))[1], packed) == 1 for c in ids]
    )
    assert np.array_equal(fast, slow)


def test_update_witnesses_counts_and_orthogonalises(ctx):
    f = ctx.f
    witnesses = np.stack([gf2.unit(f, i) for i in range(f)])
    s_pad = ctx.witness_edge_bits(witnesses[0])
    labels = ctx.compute_labels(s_pad)
    store = ctx.new_store()
    cand = store.scan_and_remove(ctx.scan_predicate(labels, s_pad))
    _, c_vec = ctx.reconstruct(cand)
    flipped = ctx.update_witnesses(witnesses, 0, c_vec)
    assert flipped == int(gf2.dot_many(np.stack([gf2.unit(f, i) for i in range(1, f)]), c_vec).sum())
    # all later witnesses now orthogonal to the selected cycle
    assert not gf2.dot_many(witnesses[1:], c_vec).any()


def test_context_on_multigraph(multigraph):
    ctx = MMContext(multigraph)
    assert ctx.f == multigraph.cycle_space_dimension()
    loops = (ctx.cand_z == -1).sum()
    assert loops == int((multigraph.edge_u == multigraph.edge_v).sum())


@pytest.mark.parametrize("lca_filter", [True, False])
def test_tree_arc_lost_to_rounding(lca_filter):
    """Arc 2→1 weighs less than one ulp of ``dist[2]``, so vertex 1 ties
    its parent's distance while sorting before it; depths, labels and the
    basis must still follow the tree."""
    g = CSRGraph(3, [0, 2, 1], [2, 1, 0], [1e6, 1e-12, 3e6])
    ctx = MMContext(g, lca_filter=lca_filter, perturb=False)
    assert ctx.parent.tolist() == [[-9999, 2, 0]]
    assert ctx.dist[0, 1] == ctx.dist[0, 2]
    assert ctx.depth.tolist() == [[0, 2, 1]]
    cycles = mm_mcb(g, lca_filter=lca_filter, perturb=False)
    assert [c.edge_ids.tolist() for c in cycles] == [[0, 1, 2]]
