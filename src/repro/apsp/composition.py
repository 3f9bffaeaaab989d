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

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from ..decomposition.biconnected import BCCDecomposition, biconnected_components
from ..graph.csr import CSRGraph
from ..sssp.engine import ZERO_WEIGHT_NUDGE
from .ear_apsp import block_rows, ear_apsp_full

Solver = Callable[[CSRGraph], np.ndarray]

__all__ = ["ComponentTables", "build_component_tables", "assemble_full_matrix"]


@dataclass
class ComponentTables:
    """Per-component distance tables plus the articulation-point closure.

    Attributes
    ----------
    bcc:
        The underlying decomposition.
    tables:
        ``tables[c]`` is the exact distance matrix over
        ``bcc.component_vertices[c]`` (in that vertex order).
    ap_ids / ap_index:
        Articulation point vertex ids (sorted) and their positions.
    ap_matrix:
        ``a × a`` exact distance table ``A`` between articulation points,
        computed by APSP over the *AP graph* (APs joined by intra-component
        distances) — the Stage 2 table of Section 2.2.
    """

    bcc: BCCDecomposition
    tables: list[np.ndarray]
    ap_ids: np.ndarray
    ap_index: dict[int, int]
    ap_matrix: np.ndarray
    vertex_local: dict[int, list[tuple[int, int]]] = field(default_factory=dict)

    def component_of(self, v: int) -> list[tuple[int, int]]:
        """``(component id, local index)`` memberships of vertex ``v``."""
        return self.vertex_local.get(int(v), [])

    def table_bytes(self, dtype_bytes: int = 4) -> int:
        """Memory model of Section 2.3: ``a² + Σ nᵢ²`` entries.

        The paper reports storage assuming 4-byte entries (its "Max Memory"
        for 10K nodes is ~400 MB); ``dtype_bytes`` makes that explicit.
        """
        total = self.ap_matrix.size
        total += sum(t.size for t in self.tables)
        return int(total) * dtype_bytes


def build_component_tables(
    g: CSRGraph,
    solver: Solver = ear_apsp_full,
    bcc: BCCDecomposition | None = None,
) -> ComponentTables:
    """Solve every biconnected component and close distances over the APs.

    ``solver`` maps a component subgraph to its exact distance matrix; it
    defaults to the ear-reduced Algorithm 1 (:func:`ear_apsp_full`).
    """
    if bcc is None:
        bcc = biconnected_components(g)
    tables: list[np.ndarray] = []
    vertex_local: dict[int, list[tuple[int, int]]] = {}
    for cid in range(bcc.count):
        sub, vmap = bcc.component_subgraph(g, cid)
        tables.append(solver(sub))
        for local, v in enumerate(vmap):
            vertex_local.setdefault(int(v), []).append((cid, local))

    ap_ids = bcc.articulation_points
    ap_index = {int(v): i for i, v in enumerate(ap_ids)}
    a = len(ap_ids)
    if a:
        # AP graph: clique per component over its APs, weighted by the
        # already-exact intra-component distances.  Two APs can share more
        # than one component, so pairs are deduplicated keeping the minimum
        # (COO duplicates would otherwise *sum* on CSR conversion).
        best: dict[tuple[int, int], float] = {}
        for cid in range(bcc.count):
            verts = bcc.component_vertices[cid]
            local_aps = [
                (ap_index[int(v)], i)
                for i, v in enumerate(verts)
                if int(v) in ap_index
            ]
            for x, (gi, li) in enumerate(local_aps):
                for gj, lj in local_aps[x + 1 :]:
                    w = float(tables[cid][li, lj])
                    if not np.isfinite(w):
                        continue
                    key = (min(gi, gj), max(gi, gj))
                    w = max(w, ZERO_WEIGHT_NUDGE)
                    if key not in best or w < best[key]:
                        best[key] = w
        if best:
            rows = np.fromiter((k[0] for k in best), dtype=np.int64, count=len(best))
            cols = np.fromiter((k[1] for k in best), dtype=np.int64, count=len(best))
            vals = np.fromiter(best.values(), dtype=np.float64, count=len(best))
            mat = sp.coo_matrix((vals, (rows, cols)), shape=(a, a)).tocsr()
        else:
            mat = sp.csr_matrix((a, a))
        ap_matrix = np.asarray(
            csgraph.dijkstra(mat, directed=False), dtype=np.float64
        )
        np.fill_diagonal(ap_matrix, 0.0)
    else:
        ap_matrix = np.zeros((0, 0), dtype=np.float64)

    return ComponentTables(
        bcc=bcc,
        tables=tables,
        ap_ids=ap_ids,
        ap_index=ap_index,
        ap_matrix=ap_matrix,
        vertex_local=vertex_local,
    )


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
    ap_pos = np.full(n, -1, dtype=np.int64)
    ap_pos[ct.ap_ids] = np.arange(a)
    members = np.zeros(n, dtype=np.int64)
    # Per component: (global AP index, local index) of each of its APs.
    comp_aps: list[tuple[np.ndarray, np.ndarray]] = []
    for verts in bcc.component_vertices:
        members[verts] += 1
        local = np.flatnonzero(ap_pos[verts] >= 0)
        comp_aps.append((ap_pos[verts[local]], local))

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
        for cid, lv in ct.component_of(v):
            candidates(block[:1], scratch[:1], cid, np.array([lv]))
            np.minimum(row, block[0], out=row)
        row[v] = 0.0
    return out
