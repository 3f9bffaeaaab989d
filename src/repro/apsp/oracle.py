"""Space-efficient exact distance oracle (Section 2.3's memory story).

Instead of the ``O(n²)`` full matrix, the oracle stores only the
per-biconnected-component tables ``Aᵢ`` and the articulation-point table
``A`` — ``O(a² + Σ nᵢ²)`` entries — and answers arbitrary ``d(u, v)``
queries exactly through the block-cut tree:

``d(u, v) = d_i(u, a1) + A[a1, a2] + d_j(a2, v)``

where ``a1``/``a2`` are the articulation points bracketing every ``u–v``
path (Section 2.2, Stage 2).  Same-component queries are table lookups.

:meth:`DistanceOracle.memory_bytes` counts the tables one built oracle
holds; :func:`repro.graph.stats.table1_row` models Table 1's memory
columns from the decompositions alone.
"""

from __future__ import annotations

import numpy as np

from ..decomposition.biconnected import biconnected_components
from ..decomposition.block_cut_tree import BlockCutTree
from ..graph.csr import CSRGraph, check_vertex_ids
from .composition import build_component_tables
from .ear_apsp import ear_apsp_full

__all__ = ["DistanceOracle"]


class DistanceOracle:
    """Exact all-pairs distance oracle with the paper's memory footprint.

    Memberships, local indices and AP ranks come from the decomposition's
    vertex index (``self.tables.bcc``).
    """

    def __init__(self, g: CSRGraph) -> None:
        self.graph = g
        bcc = biconnected_components(g)
        self.tables = build_component_tables(g, solver=ear_apsp_full, bcc=bcc)
        self.tree = BlockCutTree(g, bcc)
        self._bulk = None  # built lazily on the first query_many

    # ------------------------------------------------------------------ #

    def query(self, u: int, v: int) -> float:
        """Exact shortest-path distance between ``u`` and ``v``.

        ``inf`` when disconnected.  O(1) table lookups plus an O(log n)
        LCA for cross-component pairs.
        """
        check_vertex_ids(self.graph.n, u, v)
        if u == v:
            return 0.0
        bcc, tables = self.tables.bcc, self.tables.tables
        memb_u = dict(bcc.memberships(u))
        memb_v = dict(bcc.memberships(v))
        if not memb_u or not memb_v:
            return float("inf")  # isolated vertex
        # Same component: direct lookup (min over shared components — an
        # AP pair can share several).
        shared = memb_u.keys() & memb_v.keys()
        if shared:
            return min(float(tables[c][memb_u[c], memb_v[c]]) for c in shared)
        try:
            bracket = self.tree.boundary_aps(u, v)
        except ValueError:
            return float("inf")
        if bracket is None:  # same block found via the tree — handled above
            return float("inf")
        a1, a2 = bracket
        # d(u, a1) within u's block on the path side; a1 is in *some*
        # shared component with u — min over u's components containing a1.
        d_u = self._vertex_to_ap(memb_u, a1)
        d_v = self._vertex_to_ap(memb_v, a2)
        mid = float(self.tables.ap_matrix[bcc.ap_rank[a1], bcc.ap_rank[a2]])
        return d_u + mid + d_v

    def _vertex_to_ap(self, memberships: dict[int, int], ap: int) -> float:
        best = float("inf")
        for cid, la in self.tables.bcc.memberships(ap):
            li = memberships.get(cid)
            if li is not None:
                best = min(best, float(self.tables.tables[cid][li, la]))
        return best

    def _bulk_index(self):
        if self._bulk is None:
            from .bulk_query import BulkOracleIndex

            tables = self.tables.tables

            def dist_many(cid: int, lu: np.ndarray, lv: np.ndarray) -> np.ndarray:
                return np.asarray(tables[cid][lu, lv], dtype=np.float64)

            self._bulk = BulkOracleIndex(
                self.tables.bcc,
                self.tree,
                dist_many,
                np.asarray(self.tables.ap_matrix, dtype=np.float64),
            )
        return self._bulk

    def query_many(self, pairs: np.ndarray) -> np.ndarray:
        """Bulk ``(k, 2)`` pair queries as array passes.

        One vectorized classification pass plus batched per-component
        gathers (:mod:`repro.apsp.bulk_query`) — bit-identical to the
        scalar :meth:`query` loop.
        """
        return self._bulk_index().query_many(pairs)

    def query_many_scalar(self, pairs: np.ndarray) -> np.ndarray:
        """The per-pair scalar reference loop (kept for differential tests
        and the bulk-query smoke benchmark)."""
        pairs = np.asarray(pairs)
        return np.fromiter(
            (self.query(a, b) for a, b in pairs.tolist()),
            dtype=np.float64,
            count=len(pairs),
        )

    # ------------------------------------------------------------------ #

    def memory_bytes(self, dtype_bytes: int = 4) -> int:
        """Bytes of distance storage held (the "Our's Memory" column)."""
        return self.tables.table_bytes(dtype_bytes)

    def full_matrix_bytes(self, dtype_bytes: int = 4) -> int:
        """Bytes a dense ``n × n`` table would need ("Max Memory")."""
        return self.graph.n * self.graph.n * dtype_bytes
