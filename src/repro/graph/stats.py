"""Table 1: the structure columns and the distance-storage model.

The paper characterises each dataset by: |V|, |E|, number of biconnected
components, size of the largest BCC as a fraction of |E|, and the fraction
of vertices removed by ear reduction (the degree-2 vertices inside BCCs).
Its memory columns compare the per-BCC store ``a² + Σ nᵢ²`` (``a``
articulation points, ``nᵢ`` component sizes) with the dense ``n²``
matrix; DESIGN.md §6 adds the ear-reduced store ``Σ (nᵢʳ² + 3·removedᵢ)``.
:func:`table1_row` computes all of them for any graph from one BCC pass
and one reduction per component.  No distance table is built, so it
scales to the full-size stand-ins.
"""

from __future__ import annotations

from dataclasses import dataclass

from .csr import CSRGraph

__all__ = ["GraphStats", "table1_row"]


@dataclass(frozen=True)
class GraphStats:
    """One row of Table 1.

    The ``*_entries`` fields count the distance entries of each storage
    layout; :meth:`storage_bytes` prices them.
    """

    name: str
    n: int
    m: int
    n_bcc: int
    largest_bcc_edge_pct: float
    nodes_removed_pct: float
    degree2_pct: float
    n_articulation: int     # a
    ap_entries: int         # a² — the articulation-point table
    component_entries: int  # Σ nᵢ² — per-BCC full tables
    reduced_entries: int    # Σ (nᵢʳ² + 3·removedᵢ) — ear-reduced tables
    dense_entries: int      # n² — the full matrix

    def storage_bytes(self, entry_bytes: int) -> dict:
        """Every storage column in bytes at ``entry_bytes`` per entry.

        Use 4 for the paper's MB columns and 8 for the float64 tables the
        solvers build.  The reduced store also counts the three anchor
        scalars (``left/right/offset``) per removed vertex that answer
        queries for ear-removed vertices (Section 2.1.3).  The keys are
        those of the ledger's ``memory.table1_model`` block.
        """
        ap = self.ap_entries * entry_bytes
        comp = self.component_entries * entry_bytes
        red = self.reduced_entries * entry_bytes
        return {
            "name": self.name,
            "n": self.n,
            "m": self.m,
            "n_bcc": self.n_bcc,
            "n_articulation": self.n_articulation,
            "ap_bytes": ap,
            "component_bytes": comp,
            "reduced_bytes": red,
            "dense_bytes": self.dense_entries * entry_bytes,
            "oracle_bytes": ap + comp,
            "reduced_oracle_bytes": ap + red,
            "dtype_bytes": entry_bytes,
        }


def table1_row(g: CSRGraph, name: str = "") -> GraphStats:
    """Compute every Table 1 column for ``g``.

    "Nodes removed" counts vertices that ear reduction prunes: degree-2
    vertices interior to a biconnected component chain (computed exactly by
    running the reduction).
    """
    # Imported here to avoid a package import cycle (decomposition uses graph).
    from ..decomposition.biconnected import biconnected_components
    from ..decomposition.reduce import reduce_graph

    bcc = biconnected_components(g)
    sizes = [len(edges) for edges in bcc.component_edges]
    largest = 100.0 * max(sizes, default=0) / g.m if g.m else 0.0
    removed = comp_entries = kept_entries = 0
    for comp_id, verts in enumerate(bcc.component_vertices):
        sub, _ = bcc.component_subgraph(g, comp_id)
        red = reduce_graph(sub, keep=bcc.component_keep_mask(g, comp_id))
        removed += red.n_removed
        comp_entries += int(verts.size) ** 2
        kept_entries += int(red.graph.n) ** 2
    a = int(bcc.is_articulation.sum())
    return GraphStats(
        name=name or f"graph_{g.n}_{g.m}",
        n=g.n,
        m=g.m,
        n_bcc=bcc.count,
        largest_bcc_edge_pct=largest,
        nodes_removed_pct=100.0 * removed / g.n if g.n else 0.0,
        degree2_pct=100.0 * float((g.degree == 2).sum()) / g.n if g.n else 0.0,
        n_articulation=a,
        ap_entries=a * a,
        component_entries=comp_entries,
        reduced_entries=kept_entries + 3 * removed,
        dense_entries=g.n * g.n,
    )
