"""Post-processing kernels against the loops they replaced, bit for bit.

``extend_reduced_distances`` (Algorithm 1's post-process) and
``assemble_full_matrix`` (the Stage-3 assembly of Section 2.2) build the
``n × n`` matrix in row blocks.  Every entry must equal what the
reference loops below computed: the four anchor crossings with their
``np.ix_`` gathers, the dense same-chain mask, and the per-AP ``n_i × n``
candidate passes.  ``bcc_apsp`` now returns the assembled core matrix
directly when peeling removes nothing.  The graph set mixes the QA
corpora, the Table-1 stand-ins, fig2-chain at a second seed and graphs
sized to land on row-block edges.  A tracemalloc guard keeps each
kernel's peak near the size of its output.
"""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest

from repro import datasets
from repro.apsp import (
    assemble_full_matrix,
    bcc_apsp,
    build_component_tables,
    ear_apsp_full,
    extend_reduced_distances,
    peel_pendants,
)
from repro.apsp.composition import ComponentTables
from repro.apsp.ear_apsp import block_rows
from repro.decomposition import reduce_graph
from repro.decomposition.reduce import ReducedGraph
from repro.graph import CSRGraph, cycle_graph
from repro.graph.generators import (
    random_biconnected_graph,
    randomize_weights,
    subdivide_to_count,
)
from repro.qa.strategies import adversarial_corpus, corpus
from repro.sssp.engine import all_pairs


def reference_extend(red: ReducedGraph, s_r: np.ndarray) -> np.ndarray:
    """The four-crossing ``np.ix_`` post-process ``extend_reduced_distances``
    used to run."""
    g = red.original
    n = g.n
    kept = red.kept_ids
    out = np.full((n, n), np.inf, dtype=np.float64)
    if kept.size:
        out[np.ix_(kept, kept)] = s_r
    removed = np.nonzero(~red.kept_mask)[0]
    if removed.size:
        ch = red.chain_of[removed]
        left = red.chain_left_rid[ch]
        right = red.chain_right_rid[ch]
        dl = red.dist_left[removed]
        dr = red.dist_right[removed]

        # Removed -> kept (and the symmetric kept -> removed block).
        d_rk = np.minimum(dl[:, None] + s_r[left, :], dr[:, None] + s_r[right, :])
        out[np.ix_(removed, kept)] = d_rk
        out[np.ix_(kept, removed)] = d_rk.T

        # Removed -> removed: four anchor crossings.
        d_rr = dl[:, None] + s_r[np.ix_(left, left)] + dl[None, :]
        np.minimum(d_rr, dl[:, None] + s_r[np.ix_(left, right)] + dr[None, :], out=d_rr)
        np.minimum(d_rr, dr[:, None] + s_r[np.ix_(right, left)] + dl[None, :], out=d_rr)
        np.minimum(d_rr, dr[:, None] + s_r[np.ix_(right, right)] + dr[None, :], out=d_rr)

        # Same-chain pairs may be closer along the chain itself:
        # ``dist_left`` is the per-vertex chain prefix, so the along-chain
        # distance is ``|prefix(x) − prefix(y)|`` — one masked minimum over
        # the whole removed × removed block instead of a per-chain loop.
        same_chain = ch[:, None] == ch[None, :]
        direct = np.abs(dl[:, None] - dl[None, :])
        np.minimum(d_rr, direct, out=d_rr, where=same_chain)
        out[np.ix_(removed, removed)] = d_rr
    np.fill_diagonal(out, 0.0)
    return out


def reference_assemble(g: CSRGraph, ct: ComponentTables) -> np.ndarray:
    """The per-component ``np.ix_`` and per-AP ``n_i × n`` assembly
    ``assemble_full_matrix`` used to run."""
    n = g.n
    out = np.full((n, n), np.inf, dtype=np.float64)
    bcc = ct.bcc
    a = len(ct.ap_ids)
    ap_index = {int(v): i for i, v in enumerate(ct.ap_ids)}

    # ap_to_all[k, v]: exact distance from AP k to every vertex v, built
    # per component as min over that component's APs.
    ap_to_all = np.full((a, n), np.inf, dtype=np.float64)
    for cid in range(bcc.count):
        verts = bcc.component_vertices[cid]
        local_aps = [
            (ap_index[int(v)], i) for i, v in enumerate(verts) if int(v) in ap_index
        ]
        for gk, lk in local_aps:
            cand = ct.ap_matrix[:, gk : gk + 1] + ct.tables[cid][lk : lk + 1, :]
            block = ap_to_all[:, verts]
            np.minimum(block, cand, out=block)
            ap_to_all[:, verts] = block

    for cid in range(bcc.count):
        verts = bcc.component_vertices[cid]
        # Intra-component pairs straight from the table.
        blk = out[np.ix_(verts, verts)]
        np.minimum(blk, ct.tables[cid], out=blk)
        out[np.ix_(verts, verts)] = blk
        # Cross-component: exit through one of this component's APs.
        local_aps = [
            (ap_index[int(v)], i) for i, v in enumerate(verts) if int(v) in ap_index
        ]
        if not local_aps:
            continue
        # One in-place pass per AP keeps peak memory at O(n_i · n) instead
        # of materialising an (n_i × k_i × n) broadcast cube.
        blk = out[verts, :]
        for gk, lk in local_aps:
            np.minimum(
                blk, ct.tables[cid][:, lk : lk + 1] + ap_to_all[gk : gk + 1, :], out=blk
            )
        out[verts, :] = blk
    np.fill_diagonal(out, 0.0)
    return out


def reference_bcc_apsp(g: CSRGraph, peel: bool = True) -> np.ndarray:
    """``bcc_apsp`` as it used to run: the core matrix always embedded
    through ``np.ix_``, even when nothing was peeled."""
    n = g.n
    if not peel:
        ct = build_component_tables(g, solver=all_pairs)
        return reference_assemble(g, ct)

    core, core_ids, peel_ops = peel_pendants(g)
    out = np.full((n, n), np.inf, dtype=np.float64)
    if core.n:
        ct = build_component_tables(core, solver=all_pairs)
        core_mat = reference_assemble(core, ct)
        out[np.ix_(core_ids, core_ids)] = core_mat
    # Re-attach pendants in reverse removal order: when v re-enters, its
    # support u already has correct rows, so d(v, ·) = w + d(u, ·).
    for v, u, w in reversed(peel_ops):
        row = out[u, :] + w
        out[v, :] = row
        out[:, v] = row
        out[v, v] = 0.0
    np.fill_diagonal(out, 0.0)
    return out


def reference_ear_apsp(g: CSRGraph) -> np.ndarray:
    red = reduce_graph(g)
    return reference_extend(red, all_pairs(red.simple_graph()))


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_parity(g: CSRGraph, label: str = "") -> None:
    assert _same(ear_apsp_full(g), reference_ear_apsp(g)), (label, "ear_apsp_full")
    composed = assemble_full_matrix(g, build_component_tables(g))
    ref = reference_assemble(g, build_component_tables(g, solver=reference_ear_apsp))
    assert _same(composed, ref), (label, "composed")
    ct = build_component_tables(g, solver=all_pairs)
    ref = reference_assemble(g, ct)  # == reference_bcc_apsp(g, peel=False)
    assert _same(assemble_full_matrix(g, ct), ref), (label, "all_pairs")
    assert _same(bcc_apsp(g, peel=False), ref), (label, "bcc_apsp peel=False")
    assert _same(bcc_apsp(g, peel=True), reference_bcc_apsp(g)), (label, "bcc_apsp")


def test_parity_on_qa_corpus():
    for name, g in corpus(count=300, seed=0) + adversarial_corpus(seed=3):
        assert_parity(g, label=name)


@pytest.mark.parametrize("spec", datasets.TABLE1, ids=lambda s: s.name)
def test_parity_on_table1_standins(spec):
    assert_parity(spec.generate(0.02), label=spec.name)


def test_parity_on_fig2_chain_second_seed():
    spec = next(s for s in datasets.TABLE1 if s.name == "Wordnet3")
    assert_parity(dataclasses.replace(spec, seed=101).generate(0.02), label="fig2-chain/101")


def _n_past_block(lo: int) -> int:
    """Smallest ``n >= lo`` whose last row block holds a single row."""
    n = lo
    while not (block_rows(n) < n and n % block_rows(n) == 1):
        n += 1
    return n


def _chained(n: int, seed: int) -> CSRGraph:
    """Exactly ``n`` vertices, three quarters of them on degree-2 chains."""
    core = random_biconnected_graph(n // 4, n // 8, seed=seed)
    return subdivide_to_count(core, n - core.n, seed=seed)


def _circulant(n: int, seed: int) -> CSRGraph:
    """Every vertex has degree 4, so the reduction keeps all of them."""
    u = np.arange(n)
    w = np.random.default_rng(seed).uniform(0.5, 1.5, 2 * n)
    return CSRGraph(n, np.concatenate([u, u]), np.concatenate([(u + 1) % n, (u + 2) % n]), w)


def _with_pendants(g: CSRGraph, count: int, seed: int) -> CSRGraph:
    """``g`` plus ``count`` new vertices, each hung off an older one."""
    rng = np.random.default_rng(seed)
    support = rng.integers(0, np.arange(g.n, g.n + count))
    w = rng.uniform(0.5, 1.5, count)
    return CSRGraph(
        g.n + count,
        np.concatenate([g.edge_u, support]),
        np.concatenate([g.edge_v, np.arange(g.n, g.n + count)]),
        np.concatenate([g.edge_w, w]),
    )


PAST = _n_past_block(200)

BLOCK_EDGES = {
    "n=0": CSRGraph(0, [], [], []),
    "below-one-block": _chained(40, seed=1),
    "one-past-a-block": _chained(PAST, seed=2),
    "all-kept": _circulant(PAST, seed=3),
    "pure-cycle": randomize_weights(cycle_graph(PAST), seed=4),
    "pendants": _with_pendants(_chained(300, seed=5), 25, seed=5),
}


@pytest.mark.parametrize("name", BLOCK_EDGES)
def test_parity_on_block_edges(name):
    g = BLOCK_EDGES[name]
    red = reduce_graph(g)
    if name == "below-one-block":
        assert block_rows(g.n) == g.n
    if g.n == PAST:
        assert g.n % block_rows(g.n) == 1 and block_rows(g.n) < g.n
    if name == "all-kept":
        assert red.n_removed == 0
    if name == "pure-cycle":
        assert red.n_removed == g.n - 1
    if name == "pendants":
        assert peel_pendants(g)[2]  # bcc_apsp still embeds its core via np.ix_
    assert_parity(g, label=name)


# --------------------------------------------------------------------- #
# Memory: each kernel's tracemalloc peak stays near its n × n output
# --------------------------------------------------------------------- #


def _peak(fn, *args) -> tuple[np.ndarray, int]:
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


@pytest.fixture(scope="module")
def wordnet3() -> CSRGraph:
    return next(s for s in datasets.TABLE1 if s.name == "Wordnet3").generate(0.02)


def test_extend_peak_within_twice_the_output(wordnet3):
    red = reduce_graph(wordnet3)
    s_r = all_pairs(red.simple_graph())
    out, peak = _peak(extend_reduced_distances, red, s_r)
    assert peak <= 2.0 * out.nbytes, peak / out.nbytes


def test_assemble_peak_within_a_quarter_over_the_output(wordnet3):
    ct = build_component_tables(wordnet3)
    out, peak = _peak(assemble_full_matrix, wordnet3, ct)
    assert peak <= 1.25 * out.nbytes, peak / out.nbytes
