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
from ..graph.csr import CSRGraph, check_vertex_ids
from ..sssp.engine import all_pairs
from .bulk_query import BulkOracleIndex
from .composition import ap_closure

__all__ = ["ReducedDistanceOracle"]


class _ComponentStore:
    """Reduced table + anchor data for one biconnected component, indexed
    by component-local vertex."""

    __slots__ = ("red", "table")

    def __init__(self, red: ReducedGraph, table: np.ndarray):
        self.red = red
        self.table = table          # distances over red.graph vertices

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
    """Exact APSP oracle over reduced per-component tables.

    Memberships, local indices and AP ranks come from the decomposition's
    vertex index (``self.bcc``); ``A`` is :func:`~repro.apsp.composition.ap_closure`
    over every AP pair's reduced-table distance ``d(li, lj)``, ``li < lj``.
    """

    def __init__(self, g: CSRGraph) -> None:
        self.graph = g
        bcc = biconnected_components(g)
        self.tree = BlockCutTree(g, bcc)
        self.bcc = bcc
        self.stores: list[_ComponentStore] = []
        for cid in range(bcc.count):
            sub, _ = bcc.component_subgraph(g, cid)
            red = reduce_graph(sub, keep=bcc.component_keep_mask(g, cid))
            self.stores.append(_ComponentStore(red, all_pairs(red.simple_graph())))
        self.ap_matrix = ap_closure(
            len(self.tree.ap_ids),
            (
                (ri, rj, self.stores[cid].dist_many(li, lj))
                for cid, li, lj, ri, rj in bcc.ap_pairs()
            ),
        )
        self._bulk = BulkOracleIndex(
            bcc,
            self.tree,
            lambda cid, lu, lv: self.stores[cid].dist_many(lu, lv),
            self.ap_matrix,
        )

    # ------------------------------------------------------------------ #

    def _to_ap(self, memberships: dict[int, int], ap: int) -> float:
        best = float("inf")
        for cid, la in self.bcc.memberships(ap):
            lv = memberships.get(cid)
            if lv is not None:
                best = min(best, self.stores[cid].dist(lv, la))
        return best

    def query(self, u: int, v: int) -> float:
        """Exact shortest-path distance (``inf`` when disconnected)."""
        check_vertex_ids(self.graph.n, u, v)
        if u == v:
            return 0.0
        mu = dict(self.bcc.memberships(u))
        mv = dict(self.bcc.memberships(v))
        if not mu or not mv:
            return float("inf")
        shared = mu.keys() & mv.keys()
        if shared:
            return min(self.stores[c].dist(mu[c], mv[c]) for c in shared)
        try:
            bracket = self.tree.boundary_aps(u, v)
        except ValueError:
            return float("inf")
        if bracket is None:  # pragma: no cover - shared-block handled above
            return float("inf")
        a1, a2 = bracket
        mid = float(self.ap_matrix[self.bcc.ap_rank[a1], self.bcc.ap_rank[a2]])
        return self._to_ap(mu, a1) + mid + self._to_ap(mv, a2)

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
            (self.query(a, b) for a, b in pairs.tolist()),
            dtype=np.float64,
            count=len(pairs),
        )

    def memory_bytes(self, dtype_bytes: int = 4) -> int:
        """Stored entries × entry size (compare with the dense table)."""
        entries = int(self.ap_matrix.size) + sum(s.entries() for s in self.stores)
        return entries * dtype_bytes

    def full_matrix_bytes(self, dtype_bytes: int = 4) -> int:
        return self.graph.n * self.graph.n * dtype_bytes
