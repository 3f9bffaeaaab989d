"""Per-biconnected-component APSP composition (Section 2.2).

The general-graph pipeline: decompose into BCCs, solve each component with
a pluggable solver (ear-reduced Algorithm 1 for "Our Approach", plain
repeated Dijkstra for the Banerjee baseline), then stitch distances across
components through the articulation-point table ``A``.

Key facts the composition relies on (both hold for any graph):

* the distance between two vertices of one biconnected component is
  realised inside the component, so the per-component table is globally
  exact for intra-component pairs;
* every path between different components passes through all articulation
  points on the block-cut tree path, so
  ``d(u, v) = min_{a ∈ AP(comp(u))} d_comp(u, a) + A[a, ·→v]`` with
  equality attained at the forced exit AP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from ..decomposition.biconnected import BCCDecomposition, biconnected_components
from ..graph.csr import CSRGraph
from ..sssp.engine import ZERO_WEIGHT_NUDGE
from .ear_apsp import block_rows, ear_apsp_full

Solver = Callable[[CSRGraph], np.ndarray]

__all__ = ["ComponentTables", "ap_closure", "build_component_tables", "assemble_full_matrix"]


@dataclass
class ComponentTables:
    """Per-component distance tables plus the articulation-point closure.

    Vertex memberships, local indices and AP ranks are read from
    ``bcc``'s vertex index.

    Attributes
    ----------
    bcc:
        The underlying decomposition.
    tables:
        ``tables[c]`` is the exact distance matrix over
        ``bcc.component_vertices[c]`` (in that vertex order).
    ap_ids:
        Articulation point vertex ids (sorted); row ``k`` of ``ap_matrix``
        is ``ap_ids[k]``, i.e. the vertex of ``bcc.ap_rank`` ``k``.
    ap_matrix:
        ``a × a`` exact distance table ``A`` between articulation points,
        computed by APSP over the *AP graph* (APs joined by intra-component
        distances) — the Stage 2 table of Section 2.2.
    """

    bcc: BCCDecomposition
    tables: list[np.ndarray]
    ap_ids: np.ndarray
    ap_matrix: np.ndarray

    def table_bytes(self, dtype_bytes: int = 4) -> int:
        """Memory model of Section 2.3: ``a² + Σ nᵢ²`` entries.

        The paper reports storage assuming 4-byte entries (its "Max Memory"
        for 10K nodes is ~400 MB); ``dtype_bytes`` makes that explicit.
        """
        total = self.ap_matrix.size
        total += sum(t.size for t in self.tables)
        return int(total) * dtype_bytes


def ap_closure(
    a: int, triples: Iterable[tuple[np.ndarray, np.ndarray, np.ndarray]]
) -> np.ndarray:
    """The ``a × a`` articulation-point table ``A`` from AP-pair triples.

    ``triples`` yields ``(i, j, w)`` arrays: APs of ranks ``i < j`` share
    a component in which they are ``w`` apart.  Each weight is nudged
    up to :data:`~repro.sssp.engine.ZERO_WEIGHT_NUDGE` (scipy reads an
    explicit zero as "no edge"), a pair given twice keeps its minimum
    (two APs can share more than one component), and one sparse Dijkstra
    over the resulting AP graph gives ``A`` with a zero diagonal.
    """
    best = np.full((a, a), np.inf, dtype=np.float64)
    for i, j, w in triples:
        np.minimum.at(best, (i, j), np.maximum(w, ZERO_WEIGHT_NUDGE))
    rows, cols = np.nonzero(np.isfinite(best))
    mat = sp.coo_matrix((best[rows, cols], (rows, cols)), shape=(a, a)).tocsr()
    ap_matrix = np.asarray(csgraph.dijkstra(mat, directed=False), dtype=np.float64)
    np.fill_diagonal(ap_matrix, 0.0)
    return ap_matrix


def build_component_tables(
    g: CSRGraph,
    solver: Solver = ear_apsp_full,
    bcc: BCCDecomposition | None = None,
) -> ComponentTables:
    """Solve every biconnected component and close distances over the APs.

    ``solver`` maps a component subgraph to its exact distance matrix; it
    defaults to the ear-reduced Algorithm 1 (:func:`ear_apsp_full`).  The
    AP graph joins every two APs of a component by ``tables[c][li, lj]``
    with ``li < lj``.
    """
    if bcc is None:
        bcc = biconnected_components(g)
    tables = [solver(bcc.component_subgraph(g, cid)[0]) for cid in range(bcc.count)]
    ap_ids = bcc.articulation_points
    ap_matrix = ap_closure(
        len(ap_ids),
        ((ri, rj, tables[cid][li, lj]) for cid, li, lj, ri, rj in bcc.ap_pairs()),
    )
    return ComponentTables(bcc=bcc, tables=tables, ap_ids=ap_ids, ap_matrix=ap_matrix)


def assemble_full_matrix(g: CSRGraph, ct: ComponentTables) -> np.ndarray:
    """Materialise the full ``n × n`` matrix from component tables.

    The Stage-3 assembly of Section 2.2: the composed pipeline,
    :func:`~repro.apsp.bcc_apsp.bcc_apsp` and
    :func:`~repro.hetero.apsp_runner.apsp_with_trace` call it.  Queries
    that do not need every pair should go through
    :class:`repro.apsp.DistanceOracle`, which keeps the
    ``O(a² + Σ nᵢ²)`` footprint.

    Row ``u`` is the minimum over one candidate set, for every component
    ``c`` containing ``u``: the intra-component row ``tables[c][u]``,
    then ``tables[c][u, a] + d(a, ·)`` for *every* articulation point
    ``a`` of ``c`` (keeping the non-exit ones fixes the last-ulp bits).
    Rows of vertices in one component are built in row blocks of
    :data:`~repro.apsp.ear_apsp.ROW_BLOCK_BYTES` and written once;
    rows of vertices in several components (articulation points and
    self-loop vertices) are accumulated one at a time, and rows of
    vertices in none stay ``inf`` off the diagonal.
    """
    n = g.n
    bcc = ct.bcc
    a = len(ct.ap_ids)
    members = np.diff(bcc.member_ptr)
    # Per component: (AP rank, local index) of each of its APs.
    ptr, ap_local, ap_rank = bcc.component_aps()
    comp_aps = [(ap_rank[s:e], ap_local[s:e]) for s, e in zip(ptr[:-1], ptr[1:])]

    # ap_to_all[k, v]: exact distance from AP k to every vertex v, built
    # per component as min over that component's APs.
    ap_to_all = np.full((a, n), np.inf, dtype=np.float64)
    for cid, (gks, lks) in enumerate(comp_aps):
        if not gks.size:
            continue
        verts = bcc.component_vertices[cid]
        table = ct.tables[cid]
        blk = ap_to_all[:, verts]
        cand = np.empty_like(blk)
        for gk, lk in zip(gks, lks):
            np.add(ct.ap_matrix[:, gk, None], table[lk], out=cand)
            np.minimum(blk, cand, out=blk)
        ap_to_all[:, verts] = blk

    def candidates(blk: np.ndarray, cand: np.ndarray, cid: int, rows: np.ndarray) -> None:
        """``blk[i]``: minimum over component ``cid``'s candidates of its
        local row ``rows[i]``."""
        verts = bcc.component_vertices[cid]
        table = ct.tables[cid]
        blk.fill(np.inf)
        blk[:, verts] = table[rows]
        gks, lks = comp_aps[cid]
        for gk, lk in zip(gks, lks):
            np.add(table[rows, lk, None], ap_to_all[gk], out=cand)
            np.minimum(blk, cand, out=blk)

    out = np.empty((n, n), dtype=np.float64)
    b = block_rows(n)
    block = np.empty((b, n), dtype=np.float64)
    scratch = np.empty((b if a else 0, n), dtype=np.float64)  # AP candidates; none without APs
    for cid, verts in enumerate(bcc.component_vertices):
        own = np.flatnonzero(members[verts] == 1)
        for j0 in range(0, own.size, b):
            rows = own[j0 : j0 + b]
            blk = block[: rows.size]
            candidates(blk, scratch[: rows.size], cid, rows)
            blk[np.arange(rows.size), verts[rows]] = 0.0
            out[verts[rows]] = blk
    for v in np.flatnonzero(members != 1):
        row = out[v]
        row.fill(np.inf)
        for cid, lv in bcc.memberships(v):
            candidates(block[:1], scratch[:1], cid, np.array([lv]))
            np.minimum(row, block[0], out=row)
        row[v] = 0.0
    return out
