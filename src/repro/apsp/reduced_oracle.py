"""Reduced-table distance oracle: ``S^r`` storage + on-the-fly formulas.

:class:`repro.apsp.DistanceOracle` stores full per-component tables
(every vertex of each BCC).  This variant goes one step further down the
paper's own path: it stores only the **reduced** per-component tables
(vertices of degree ≥ 3 plus articulation points) together with the
three scalars per removed vertex (left/right anchors and chain offsets),
and evaluates the Section 2.1.3 closed forms at query time.

Storage is ``O(a² + Σ (nᵢʳ)² + n)`` — the accounting that reproduces the
paper's Table-1 savings even for single-BCC, chain-heavy graphs (c-50:
52% of vertices removed → tables shrink ~4×).

Queries remain exact; the test-suite checks every pair against the full
matrix.
"""

from __future__ import annotations

import numpy as np

from ..decomposition.biconnected import biconnected_components
from ..decomposition.block_cut_tree import BlockCutTree
from ..decomposition.reduce import ReducedGraph, reduce_graph
from ..graph.csr import CSRGraph
from ..sssp.engine import ZERO_WEIGHT_NUDGE, all_pairs
from .bulk_query import BulkOracleIndex, check_vertex_ids

__all__ = ["ReducedDistanceOracle"]


class _ComponentStore:
    """Reduced table + anchor data for one biconnected component."""

    __slots__ = ("red", "table", "vmap", "local")

    def __init__(self, red: ReducedGraph, table: np.ndarray, vmap: np.ndarray):
        self.red = red
        self.table = table          # distances over red.graph vertices
        self.vmap = vmap            # component-local -> global vertex ids
        self.local = {int(v): i for i, v in enumerate(vmap)}

    def dist(self, lu: int, lv: int) -> float:
        """Exact distance between two component-local vertices."""
        red = self.red
        if lu == lv:
            return 0.0
        ku, kv = red.kept_mask[lu], red.kept_mask[lv]
        s = self.table
        rid = red.reduced_id
        if ku and kv:
            return float(s[rid[lu], rid[lv]])
        left, right = red.chain_left_rid, red.chain_right_rid
        if ku or kv:
            x, v = (lv, lu) if ku else (lu, lv)
            c = red.chain_of[x]
            return float(
                min(
                    red.dist_left[x] + s[left[c], rid[v]],
                    red.dist_right[x] + s[right[c], rid[v]],
                )
            )
        # both removed
        cu, cv = red.chain_of[lu], red.chain_of[lv]
        lx, rx = left[cu], right[cu]
        ly, ry = left[cv], right[cv]
        dlu, dru = red.dist_left[lu], red.dist_right[lu]
        dlv, drv = red.dist_left[lv], red.dist_right[lv]
        best = min(
            dlu + s[lx, ly] + dlv,
            dlu + s[lx, ry] + drv,
            dru + s[rx, ly] + dlv,
            dru + s[rx, ry] + drv,
        )
        if cu == cv:
            # ``dist_left`` is the chain prefix at the vertex's position.
            best = min(best, abs(float(dlu) - float(dlv)))
        return float(best)

    def dist_many(self, lu: np.ndarray, lv: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`dist` over arrays of component-local vertices.

        Evaluates the Section 2.1.3 closed forms as batched gathers over
        the chain prefix arrays — bit-identical to the scalar path (same
        table lookups, same minimum sets, same association order).
        """
        red = self.red
        s = self.table
        rid = red.reduced_id
        lu = np.asarray(lu, dtype=np.int64)
        lv = np.asarray(lv, dtype=np.int64)
        out = np.empty(lu.size, dtype=np.float64)
        ku = red.kept_mask[lu]
        kv = red.kept_mask[lv]
        both = ku & kv
        if both.any():
            out[both] = s[rid[lu[both]], rid[lv[both]]]
        one = ku ^ kv
        if one.any():
            x = np.where(ku[one], lv[one], lu[one])  # the removed vertex
            w = np.where(ku[one], lu[one], lv[one])  # the kept vertex
            ch = red.chain_of[x]
            lx = red.chain_left_rid[ch]
            rx = red.chain_right_rid[ch]
            rw = rid[w]
            out[one] = np.minimum(
                red.dist_left[x] + s[lx, rw], red.dist_right[x] + s[rx, rw]
            )
        rr = ~ku & ~kv
        if rr.any():
            x, y = lu[rr], lv[rr]
            cx, cy = red.chain_of[x], red.chain_of[y]
            lx, rx = red.chain_left_rid[cx], red.chain_right_rid[cx]
            ly, ry = red.chain_left_rid[cy], red.chain_right_rid[cy]
            dlu, dru = red.dist_left[x], red.dist_right[x]
            dlv, drv = red.dist_left[y], red.dist_right[y]
            best = (dlu + s[lx, ly]) + dlv
            np.minimum(best, (dlu + s[lx, ry]) + drv, out=best)
            np.minimum(best, (dru + s[rx, ly]) + dlv, out=best)
            np.minimum(best, (dru + s[rx, ry]) + drv, out=best)
            # Same-chain closed form over the cumsum prefixes.
            np.minimum(best, np.abs(dlu - dlv), out=best, where=cx == cy)
            out[rr] = best
        out[lu == lv] = 0.0
        return out

    def entries(self) -> int:
        """Stored distance entries plus anchor scalars."""
        return int(self.table.size) + 3 * self.red.n_removed


class ReducedDistanceOracle:
    """Exact APSP oracle over reduced per-component tables."""

    def __init__(self, g: CSRGraph, chunk_size: int | None = None) -> None:
        self.graph = g
        bcc = biconnected_components(g)
        self.tree = BlockCutTree(g, bcc)
        self.bcc = bcc
        self.stores: list[_ComponentStore] = []
        self._memberships: dict[int, list[int]] = {}
        for cid in range(bcc.count):
            sub, vmap = bcc.component_subgraph(g, cid)
            red = reduce_graph(sub, keep=bcc.component_keep_mask(g, cid))
            table = all_pairs(red.simple_graph(), chunk_size=chunk_size)
            self.stores.append(_ComponentStore(red, table, vmap))
            for v in vmap:
                self._memberships.setdefault(int(v), []).append(cid)
        # Vectorized classification index; its ``ap_shared`` matrix is the
        # min intra-component distance per co-located AP pair — exactly the
        # edge list the articulation closure is built from, so the closure
        # construction below is one sparse-Dijkstra over its finite entries.
        self.ap_ids = bcc.articulation_points
        self.ap_index = {int(v): i for i, v in enumerate(self.ap_ids)}
        self._bulk = BulkOracleIndex(
            g.n,
            self.tree,
            bcc.component_vertices,
            lambda cid, lu, lv: self.stores[cid].dist_many(lu, lv),
        )
        a = len(self.ap_ids)
        if a:
            import scipy.sparse as sp
            import scipy.sparse.csgraph as csgraph

            rows, cols = np.nonzero(np.triu(np.isfinite(self._bulk.ap_shared), k=1))
            if rows.size:
                vals = np.maximum(
                    self._bulk.ap_shared[rows, cols], ZERO_WEIGHT_NUDGE
                )
                mat = sp.coo_matrix((vals, (rows, cols)), shape=(a, a)).tocsr()
            else:
                mat = sp.csr_matrix((a, a))
            self.ap_matrix = np.asarray(csgraph.dijkstra(mat, directed=False))
            np.fill_diagonal(self.ap_matrix, 0.0)
        else:
            self.ap_matrix = np.zeros((0, 0))
        self._bulk.ap_matrix = self.ap_matrix

    # ------------------------------------------------------------------ #

    def _intra(self, cid: int, u: int, v: int) -> float:
        store = self.stores[cid]
        return store.dist(store.local[int(u)], store.local[int(v)])

    def _to_ap(self, memberships: list[int], v: int, ap: int) -> float:
        best = float("inf")
        for cid in memberships:
            store = self.stores[cid]
            la = store.local.get(int(ap))
            if la is not None:
                best = min(best, store.dist(store.local[int(v)], la))
        return best

    def query(self, u: int, v: int) -> float:
        """Exact shortest-path distance (``inf`` when disconnected)."""
        check_vertex_ids(self.graph.n, u, v)
        if u == v:
            return 0.0
        mu = self._memberships.get(int(u), [])
        mv = self._memberships.get(int(v), [])
        if not mu or not mv:
            return float("inf")
        shared = set(mu) & set(mv)
        if shared:
            return min(self._intra(c, u, v) for c in shared)
        try:
            bracket = self.tree.boundary_aps(u, v)
        except ValueError:
            return float("inf")
        if bracket is None:  # pragma: no cover - shared-block handled above
            return float("inf")
        a1, a2 = bracket
        mid = float(self.ap_matrix[self.ap_index[a1], self.ap_index[a2]])
        return self._to_ap(mu, u, a1) + mid + self._to_ap(mv, v, a2)

    def query_many(self, pairs: np.ndarray) -> np.ndarray:
        """Bulk ``(k, 2)`` pair queries as array passes.

        Classifies every pair at once and resolves each class with batched
        gathers (see :mod:`repro.apsp.bulk_query`) — bit-identical to the
        scalar :meth:`query` loop, integer factors faster.
        """
        return self._bulk.query_many(pairs)

    def query_many_scalar(self, pairs: np.ndarray) -> np.ndarray:
        """The per-pair scalar reference loop (kept for differential tests
        and the bulk-query smoke benchmark)."""
        pairs = np.asarray(pairs)
        return np.fromiter(
            (self.query(int(a), int(b)) for a, b in pairs),
            dtype=np.float64,
            count=len(pairs),
        )

    def memory_bytes(self, dtype_bytes: int = 4) -> int:
        """Stored entries × entry size (compare with the dense table)."""
        entries = int(self.ap_matrix.size) + sum(s.entries() for s in self.stores)
        return entries * dtype_bytes

    def full_matrix_bytes(self, dtype_bytes: int = 4) -> int:
        return self.graph.n * self.graph.n * dtype_bytes
