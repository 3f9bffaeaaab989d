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
from ..graph.csr import CSRGraph
from .bulk_query import check_vertex_ids
from .composition import Solver, build_component_tables
from .ear_apsp import ear_apsp_full

__all__ = ["DistanceOracle"]


class DistanceOracle:
    """Exact all-pairs distance oracle with the paper's memory footprint."""

    def __init__(self, g: CSRGraph, solver: Solver = ear_apsp_full) -> None:
        self.graph = g
        bcc = biconnected_components(g)
        self.tables = build_component_tables(g, solver=solver, bcc=bcc)
        self.tree = BlockCutTree(g, bcc)
        # Local index of each vertex inside each of its components.
        self._local = self.tables.vertex_local
        self._bulk = None  # built lazily on the first query_many

    # ------------------------------------------------------------------ #

    def _local_index(self, cid: int, v: int) -> int:
        for c, li in self._local[int(v)]:
            if c == cid:
                return li
        raise KeyError(f"vertex {v} not in component {cid}")

    def query(self, u: int, v: int) -> float:
        """Exact shortest-path distance between ``u`` and ``v``.

        ``inf`` when disconnected.  O(1) table lookups plus an O(log n)
        LCA for cross-component pairs.
        """
        check_vertex_ids(self.graph.n, u, v)
        if u == v:
            return 0.0
        memb_u = self._local.get(int(u), [])
        memb_v = self._local.get(int(v), [])
        if not memb_u or not memb_v:
            return float("inf")  # isolated vertex
        # Same component: direct lookup (min over shared components — an
        # AP pair can share several).
        shared = {c for c, _ in memb_u} & {c for c, _ in memb_v}
        if shared:
            return min(
                float(self.tables.tables[c][self._local_index(c, u), self._local_index(c, v)])
                for c in shared
            )
        try:
            bracket = self.tree.boundary_aps(u, v)
        except ValueError:
            return float("inf")
        if bracket is None:  # same block found via the tree — handled above
            return float("inf")
        a1, a2 = bracket
        # d(u, a1) within u's block on the path side; a1 is in *some*
        # shared component with u — min over u's components containing a1.
        d_u = self._vertex_to_ap(memb_u, u, a1)
        d_v = self._vertex_to_ap(memb_v, v, a2)
        mid = float(
            self.tables.ap_matrix[
                self.tables.ap_index[a1], self.tables.ap_index[a2]
            ]
        )
        return d_u + mid + d_v

    def _vertex_to_ap(self, memberships: list[tuple[int, int]], v: int, ap: int) -> float:
        best = float("inf")
        for cid, li in memberships:
            for c2, la in self._local.get(int(ap), []):
                if c2 == cid:
                    best = min(best, float(self.tables.tables[cid][li, la]))
        return best

    def _bulk_index(self):
        if self._bulk is None:
            from .bulk_query import BulkOracleIndex

            tables = self.tables.tables

            def dist_many(cid: int, lu: np.ndarray, lv: np.ndarray) -> np.ndarray:
                return np.asarray(tables[cid][lu, lv], dtype=np.float64)

            self._bulk = BulkOracleIndex(
                self.graph.n,
                self.tree,
                self.tables.bcc.component_vertices,
                dist_many,
                ap_matrix=np.asarray(self.tables.ap_matrix, dtype=np.float64),
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
            (self.query(int(a), int(b)) for a, b in pairs),
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
