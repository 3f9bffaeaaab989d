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

The index is oracle-agnostic: it only needs the decomposition's vertex
index, the block-cut tree, the articulation closure ``A``, and a callable
``dist_many(cid, lu, lv)`` that answers component-local distances for
index arrays — the full-table oracle passes a table gather, the reduced
oracle passes the vectorized chain-formula kernel.  Every resolution is
bit-identical to the scalar ``query`` (same lookups, same minimum sets,
same association order), which the qa suite asserts across the
adversarial corpus.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..decomposition.biconnected import BCCDecomposition
from ..decomposition.block_cut_tree import BlockCutTree
from ..graph.csr import check_vertex_ids
from ..obs import metrics as _metrics
from ..obs.trace import span as _span

__all__ = ["BulkOracleIndex"]

#: Component-local distance kernel: ``dist_many(cid, lu, lv)``.
DistManyFn = Callable[[int, np.ndarray, np.ndarray], np.ndarray]

_C_BATCHES = _metrics.counter("bulk_query.batches")
_C_PAIRS = _metrics.counter("bulk_query.pairs")
_C_SAME = _metrics.counter("bulk_query.same_component_pairs")
_C_CROSS = _metrics.counter("bulk_query.cross_component_pairs")
_C_UNREACH = _metrics.counter("bulk_query.unreachable_pairs")
_C_GROUPS = _metrics.counter("bulk_query.component_groups")


class BulkOracleIndex:
    """Vectorized pair classification + resolution for a distance oracle.

    Every per-vertex fact it classifies by — articulation point or not, AP
    rank, home component, memberships — is read from the decomposition's
    vertex index; a component's local indices are positions in its sorted
    ``component_vertices``.

    Parameters
    ----------
    bcc:
        The :class:`~repro.decomposition.biconnected.BCCDecomposition` of
        the original graph.
    tree:
        Its :class:`~repro.decomposition.block_cut_tree.BlockCutTree`.
    dist_many:
        ``dist_many(cid, lu, lv) -> distances`` for arrays of
        component-local indices; must be bit-identical to the oracle's
        scalar per-component distance.
    ap_matrix:
        The ``a × a`` articulation closure.
    """

    def __init__(
        self,
        bcc: BCCDecomposition,
        tree: BlockCutTree,
        dist_many: DistManyFn,
        ap_matrix: np.ndarray,
    ) -> None:
        self.bcc = bcc
        self.n = int(bcc.ap_rank.size)
        self.tree = tree
        self._dist_many = dist_many
        self.ap_matrix = ap_matrix
        self.member = np.diff(bcc.member_ptr) > 0
        # (component, AP rank) of every AP membership as one ascending key,
        # for the local index of an AP in a given component.
        a = len(tree.ap_ids)
        ptr, self._ap_loc, rank = bcc.component_aps()
        self._ap_key = np.repeat(np.arange(bcc.count), np.diff(ptr)) * a + rank

        # Minimum intra-component distance for every AP pair sharing a
        # block (``inf`` elsewhere) — the vectorized form of the scalar
        # "min over shared components" branch.
        self.ap_shared = np.full((a, a), np.inf, dtype=np.float64)
        for cid, li, lj, ri, rj in bcc.ap_pairs():
            # Both orientations are gathered: per-source Dijkstra tables
            # can differ in the last ulp between d(i,j) and d(j,i), and
            # the scalar query always reads the (u, v) orientation.
            np.minimum.at(self.ap_shared, (ri, rj), self._dist_many(cid, li, lj))
            np.minimum.at(self.ap_shared, (rj, ri), self._dist_many(cid, lj, li))
        np.fill_diagonal(self.ap_shared, 0.0)

    # ------------------------------------------------------------------ #

    def _ap_local(self, comp: np.ndarray, ap_idx: np.ndarray) -> np.ndarray:
        """Local index of AP ``ap_idx[i]`` in component ``comp[i]``
        (``-1`` where it is not a member)."""
        key = comp * len(self.tree.ap_ids) + ap_idx
        pos = np.minimum(np.searchsorted(self._ap_key, key), self._ap_key.size - 1)
        return np.where(self._ap_key[pos] == key, self._ap_loc[pos], -1)

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
        plain = ~self.bcc.is_articulation[verts]
        if plain.any():
            comp = self.bcc.home[verts[plain]]
            lu = self.bcc.home_local[verts[plain]]
            out[plain] = self._grouped_dist(comp, lu, self._ap_local(comp, ap_idx[plain]))
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

            bcc = self.bcc
            rank, home, home_local = bcc.ap_rank, bcc.home, bcc.home_local
            apu, apv = bcc.is_articulation[u], bcc.is_articulation[v]
            # Same component, no APs involved: unique components must match.
            same_nn = live & ~apu & ~apv & (home[u] == home[v])
            # Exactly one AP: shared iff the AP sits in the other's block.
            one_ap = live & (apu ^ apv)
            comp1 = np.where(apu, home[v], home[u])
            l_ap = np.full(k, -1, dtype=np.int64)
            if one_ap.any():
                ap_side = np.where(apu, u, v)[one_ap]
                l_ap[one_ap] = self._ap_local(comp1[one_ap], rank[ap_side])
            one_ap_shared = one_ap & (l_ap >= 0)
            # Both APs: the precomputed min over shared blocks answers
            # directly (``inf`` marks "no shared block" → cross class).
            both_ap = live & apu & apv
            both_ap_shared = np.zeros(k, dtype=bool)
            if both_ap.any():
                d = self.ap_shared[rank[u[both_ap]], rank[v[both_ap]]]
                hit = np.isfinite(d)
                sel = np.nonzero(both_ap)[0]
                out[sel[hit]] = d[hit]
                both_ap_shared[sel[hit]] = True

            same_comp = same_nn | one_ap_shared
            if same_comp.any():
                idx = np.nonzero(same_comp)[0]
                # comp1 is the non-AP side's home, which same_nn pairs share.
                lu = np.where(apu[idx], l_ap[idx], home_local[u[idx]])
                lv = np.where(apv[idx], l_ap[idx], home_local[v[idx]])
                out[idx] = self._grouped_dist(comp1[idx], lu, lv)
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

    def query_many(self, pairs: np.ndarray) -> np.ndarray:
        """Distances for a ``(k, 2)`` pair array, classified in bulk.

        A non-integer id raises ``TypeError``, one outside ``[0, n)``
        ``ValueError``.
        """
        pairs = np.asarray(pairs)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(f"expected a (k, 2) pair array, got {pairs.shape}")
        check_vertex_ids(self.n, pairs)
        if pairs.shape[0] == 0:
            return np.full(0, np.inf, dtype=np.float64)
        return self._resolve(pairs.astype(np.int64, copy=False))
