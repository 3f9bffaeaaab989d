"""Vectorized bulk point-to-point queries over block-cut decompositions.

Both distance oracles (:class:`repro.apsp.DistanceOracle` and
:class:`repro.apsp.ReducedDistanceOracle`) answer a single ``d(u, v)``
through the same three-way classification: *same component* (table lookup
or Section 2.1.3 chain formulas), *cross component* (boundary articulation
points bracketing every path, Section 2.2), *unreachable*.  The scalar
``query`` walks that decision tree one pair at a time — dict lookups,
Python ``set`` intersections, one LCA per pair.

:class:`BulkOracleIndex` runs the whole decision tree as array passes:

1. classify **all** pairs at once (boolean masks over the pair array);
2. resolve each class with batched gathers — same-component pairs are
   grouped per component and handed to a vectorized per-component distance
   kernel, cross-component pairs get their bracketing APs from the
   vectorized binary-lifting LCA of
   :meth:`repro.decomposition.block_cut_tree.BlockCutTree.boundary_aps_many`
   and finish with one fused ``d(u,a1) + A[a1,a2] + d(a2,v)`` pass.

The index is oracle-agnostic: it only needs the component vertex lists,
the block-cut tree, the articulation closure ``A``, and a callable
``dist_many(cid, lu, lv)`` that answers component-local distances for
index arrays — the full-table oracle passes a table gather, the reduced
oracle passes the vectorized chain-formula kernel.  Every resolution is
bit-identical to the scalar ``query`` (same lookups, same minimum sets,
same association order), which the qa suite asserts across the
adversarial corpus.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..decomposition.block_cut_tree import BlockCutTree
from ..obs import metrics as _metrics
from ..obs.trace import span as _span

__all__ = ["BulkOracleIndex", "check_vertex_ids"]

#: Component-local distance kernel: ``dist_many(cid, lu, lv)``.
DistManyFn = Callable[[int, np.ndarray, np.ndarray], np.ndarray]

_C_BATCHES = _metrics.counter("bulk_query.batches")
_C_PAIRS = _metrics.counter("bulk_query.pairs")
_C_SAME = _metrics.counter("bulk_query.same_component_pairs")
_C_CROSS = _metrics.counter("bulk_query.cross_component_pairs")
_C_UNREACH = _metrics.counter("bulk_query.unreachable_pairs")
_C_GROUPS = _metrics.counter("bulk_query.component_groups")


def check_vertex_ids(n: int, *ids: int) -> None:
    """Raise ``ValueError`` for the first of ``ids`` outside ``[0, n)``.

    Both oracles' scalar ``query(u, v)`` pass ``u, v``; ``query_many``
    passes its pair array's minimum and maximum, which lie in range iff
    every id does.
    """
    for vid in ids:
        if not 0 <= vid < n:
            raise ValueError(f"vertex id {vid} is outside [0, {n})")


class BulkOracleIndex:
    """Vectorized pair classification + resolution for a distance oracle.

    Parameters
    ----------
    n:
        Vertex count of the original graph.
    tree:
        Its :class:`~repro.decomposition.block_cut_tree.BlockCutTree`.
    component_vertices:
        ``component_vertices[c]`` lists the global vertex ids of component
        ``c`` — local index *is* position, matching both oracles' tables.
    dist_many:
        ``dist_many(cid, lu, lv) -> distances`` for arrays of
        component-local indices; must be bit-identical to the oracle's
        scalar per-component distance.
    ap_matrix:
        The ``a × a`` articulation closure.  May be attached after
        construction (the reduced oracle derives it *from* this index's
        :attr:`ap_shared`).
    """

    def __init__(
        self,
        n: int,
        tree: BlockCutTree,
        component_vertices: Sequence[np.ndarray],
        dist_many: DistManyFn,
        ap_matrix: np.ndarray | None = None,
    ) -> None:
        self.n = int(n)
        self.tree = tree
        self._dist_many = dist_many
        self.ap_matrix = ap_matrix
        a = len(tree.ap_ids)
        n_blocks = len(component_vertices)

        self.is_ap = np.zeros(self.n, dtype=bool)
        self.ap_idx_of = np.full(self.n, -1, dtype=np.int64)
        if a:
            ap_ids = np.asarray(tree.ap_ids, dtype=np.int64)
            self.is_ap[ap_ids] = True
            self.ap_idx_of[ap_ids] = np.arange(a, dtype=np.int64)

        # Home component + local index for every non-AP vertex; per-block
        # local positions of every AP (``-1`` where the AP is not a member).
        # Single-vertex blocks (self-loops) are filled first so that a
        # vertex's multi-vertex block — the only one that can reach other
        # vertices — wins, mirroring ``BlockCutTree._vertex_block``.
        self.comp_of = np.full(self.n, -1, dtype=np.int64)
        self.local_of = np.full(self.n, -1, dtype=np.int64)
        self.ap_local = np.full((n_blocks, a), -1, dtype=np.int64)
        for multi in (False, True):
            for cid, verts in enumerate(component_vertices):
                verts = np.asarray(verts, dtype=np.int64)
                if (verts.size > 1) != multi:
                    continue
                loc = np.arange(verts.size, dtype=np.int64)
                ap_here = self.is_ap[verts]
                plain = verts[~ap_here]
                self.comp_of[plain] = cid
                self.local_of[plain] = loc[~ap_here]
                if ap_here.any():
                    self.ap_local[cid, self.ap_idx_of[verts[ap_here]]] = loc[ap_here]
        self.member = self.is_ap | (self.comp_of >= 0)

        # Minimum intra-component distance for every AP pair sharing a
        # block (``inf`` elsewhere) — the vectorized form of the scalar
        # "min over shared components" branch, and the edge list the
        # reduced oracle's articulation closure is built from.
        self.ap_shared = np.full((a, a), np.inf, dtype=np.float64)
        for cid in range(n_blocks):
            here = np.nonzero(self.ap_local[cid] >= 0)[0]
            if here.size < 2:
                continue
            iu, iv = np.triu_indices(here.size, k=1)
            gi, gj = here[iu], here[iv]
            li, lj = self.ap_local[cid, gi], self.ap_local[cid, gj]
            # Both orientations are gathered: per-source Dijkstra tables
            # can differ in the last ulp between d(i,j) and d(j,i), and
            # the scalar query always reads the (u, v) orientation.
            np.minimum.at(self.ap_shared, (gi, gj), self._dist_many(cid, li, lj))
            np.minimum.at(self.ap_shared, (gj, gi), self._dist_many(cid, lj, li))
        np.fill_diagonal(self.ap_shared, 0.0)

    # ------------------------------------------------------------------ #

    def _grouped_dist(
        self, comp: np.ndarray, lu: np.ndarray, lv: np.ndarray
    ) -> np.ndarray:
        """``dist_many`` over mixed-component pairs, one batch per component."""
        out = np.empty(comp.size, dtype=np.float64)
        order = np.argsort(comp, kind="stable")
        sorted_comp = comp[order]
        cut = np.nonzero(np.diff(sorted_comp))[0] + 1
        starts = np.concatenate([[0], cut])
        ends = np.concatenate([cut, [comp.size]])
        _C_GROUPS.inc(int(starts.size))
        for s, e in zip(starts, ends):
            idx = order[s:e]
            cid = int(comp[idx[0]])
            out[idx] = self._dist_many(cid, lu[idx], lv[idx])
        return out

    def _to_ap_many(self, verts: np.ndarray, ap_idx: np.ndarray) -> np.ndarray:
        """Distance from each vertex to its bracketing AP (0 for AP verts)."""
        out = np.zeros(verts.size, dtype=np.float64)
        plain = ~self.is_ap[verts]
        if plain.any():
            comp = self.comp_of[verts[plain]]
            lu = self.local_of[verts[plain]]
            la = self.ap_local[comp, ap_idx[plain]]
            out[plain] = self._grouped_dist(comp, lu, la)
        return out

    def _resolve(self, pairs: np.ndarray) -> np.ndarray:
        """Classify + resolve a validated, non-empty ``(k, 2)`` pair array."""
        k = pairs.shape[0]
        out = np.full(k, np.inf, dtype=np.float64)
        _C_BATCHES.inc()
        _C_PAIRS.inc(k)
        with _span("apsp.bulk_query", cat="apsp", pairs=k):
            u, v = pairs[:, 0], pairs[:, 1]
            eq = u == v
            out[eq] = 0.0
            live = ~eq & self.member[u] & self.member[v]

            apu, apv = self.is_ap[u], self.is_ap[v]
            # Same component, no APs involved: unique components must match.
            same_nn = live & ~apu & ~apv & (self.comp_of[u] == self.comp_of[v])
            # Exactly one AP: shared iff the AP sits in the other's block.
            one_ap = live & (apu ^ apv)
            comp1 = np.where(apu, self.comp_of[v], self.comp_of[u])
            ap_side = np.where(apu, u, v)
            l_ap = np.full(k, -1, dtype=np.int64)
            if one_ap.any():
                l_ap[one_ap] = self.ap_local[
                    comp1[one_ap], self.ap_idx_of[ap_side[one_ap]]
                ]
            one_ap_shared = one_ap & (l_ap >= 0)
            # Both APs: the precomputed min over shared blocks answers
            # directly (``inf`` marks "no shared block" → cross class).
            both_ap = live & apu & apv
            both_ap_shared = np.zeros(k, dtype=bool)
            if both_ap.any():
                d = self.ap_shared[self.ap_idx_of[u[both_ap]], self.ap_idx_of[v[both_ap]]]
                hit = np.isfinite(d)
                sel = np.nonzero(both_ap)[0]
                out[sel[hit]] = d[hit]
                both_ap_shared[sel[hit]] = True

            same_comp = same_nn | one_ap_shared
            if same_comp.any():
                idx = np.nonzero(same_comp)[0]
                comp = np.where(
                    apu[idx] | apv[idx], comp1[idx], self.comp_of[u[idx]]
                )
                lu = np.where(apu[idx], l_ap[idx], self.local_of[u[idx]])
                lv = np.where(apv[idx], l_ap[idx], self.local_of[v[idx]])
                out[idx] = self._grouped_dist(comp, lu, lv)
            _C_SAME.inc(int(same_comp.sum() + both_ap_shared.sum()))

            cross = live & ~(same_comp | both_ap_shared)
            n_cross = 0
            if cross.any():
                ci = np.nonzero(cross)[0]
                a1, a2, same_block, disc = self.tree.boundary_aps_many(u[ci], v[ci])
                # Leftover same-block / disconnected pairs answer ``inf``,
                # matching the scalar query's fallthrough.
                ok = ~(same_block | disc)
                sel = ci[ok]
                if sel.size:
                    a1, a2 = a1[ok], a2[ok]
                    d_u = self._to_ap_many(u[sel], a1)
                    d_v = self._to_ap_many(v[sel], a2)
                    out[sel] = (d_u + self.ap_matrix[a1, a2]) + d_v
                n_cross = int(sel.size)
            _C_CROSS.inc(n_cross)
            _C_UNREACH.inc(int(np.isinf(out).sum()))
        return out

    def _check_pairs(self, pairs: np.ndarray) -> np.ndarray:
        pairs = np.asarray(pairs, dtype=np.int64)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(f"expected a (k, 2) pair array, got {pairs.shape}")
        if pairs.size:
            check_vertex_ids(self.n, int(pairs.min()), int(pairs.max()))
        if pairs.shape[0] and self.ap_matrix is None:
            raise ValueError("BulkOracleIndex.ap_matrix is not attached yet")
        return pairs

    def query_many(self, pairs: np.ndarray) -> np.ndarray:
        """Distances for a ``(k, 2)`` pair array, classified in bulk."""
        pairs = self._check_pairs(pairs)
        if pairs.shape[0] == 0:
            return np.full(0, np.inf, dtype=np.float64)
        return self._resolve(pairs)
