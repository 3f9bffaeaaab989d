"""Block-cut tree (as used by Banerjee et al. [4] and Section 2.2).

The block-cut tree of a graph ``G`` is the bipartite forest whose nodes are
the biconnected components ("blocks") and the articulation points ("cuts"),
with a block adjacent to every cut vertex it contains.  Any path between
vertices in different blocks traverses exactly the cut vertices lying on the
tree path between the two block nodes — which is what makes the
``d(n1, n2) = d(n1, a1) + A[a1, a2] + d(a2, n2)`` post-processing formula of
Stage 2 valid.

LCA queries use binary lifting so oracle distance queries stay
``O(log n)`` per pair.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from .biconnected import BCCDecomposition

__all__ = ["BlockCutTree"]


class BlockCutTree:
    """Block-cut forest with LCA support.

    Node numbering: block nodes are ``0 .. n_blocks-1`` (matching component
    ids of the :class:`BCCDecomposition`), cut nodes are
    ``n_blocks + k`` for the articulation point of ``bcc.ap_rank`` ``k``.
    Both the block–cut edges and each vertex's node come from the
    decomposition's vertex index; ``g`` is the decomposed graph.
    """

    def __init__(self, g: CSRGraph, bcc: BCCDecomposition) -> None:
        self.bcc = bcc
        self.n_blocks = bcc.count
        self.ap_ids = bcc.articulation_points
        n_nodes = self.n_blocks + len(self.ap_ids)
        self.n_nodes = n_nodes

        # A block's neighbours are its cuts in vertex order, a cut's its
        # blocks in ascending order.
        ptr, _, rank = bcc.component_aps()
        block_of = np.repeat(np.arange(self.n_blocks), np.diff(ptr))
        by_cut = np.argsort(rank, kind="stable")
        cut_ptr = np.searchsorted(rank[by_cut], np.arange(len(self.ap_ids) + 1))
        adj: list[list[int]] = [
            (self.n_blocks + rank[s:e]).tolist() for s, e in zip(ptr[:-1], ptr[1:])
        ] + [block_of[by_cut[s:e]].tolist() for s, e in zip(cut_ptr[:-1], cut_ptr[1:])]
        self.adj = adj
        # Each vertex's tree node: its cut node, else its home block.
        self._node_of = np.where(bcc.ap_rank >= 0, self.n_blocks + bcc.ap_rank, bcc.home)

        # BFS forest + binary lifting tables.
        self.parent = np.full(n_nodes, -1, dtype=np.int64)
        self.depth = np.zeros(n_nodes, dtype=np.int64)
        self.tree_id = np.full(n_nodes, -1, dtype=np.int64)
        tid = 0
        for root in range(n_nodes):
            if self.tree_id[root] != -1:
                continue
            self.tree_id[root] = tid
            queue = [root]
            while queue:
                u = queue.pop()
                for w in adj[u]:
                    if self.tree_id[w] == -1:
                        self.tree_id[w] = tid
                        self.parent[w] = u
                        self.depth[w] = self.depth[u] + 1
                        queue.append(w)
            tid += 1
        self.n_trees = tid

        levels = max(1, int(np.ceil(np.log2(max(2, n_nodes)))))
        up = np.full((levels, n_nodes), -1, dtype=np.int64)
        up[0] = self.parent
        for k in range(1, levels):
            prev = up[k - 1]
            mask = prev >= 0
            up[k, mask] = prev[prev[mask]]
        self._up = up

    # ------------------------------------------------------------------ #

    def node_for_vertex(self, v: int) -> int:
        """Tree node representing graph vertex ``v``.

        Articulation points map to their cut node; other vertices map to
        their unique block node.  Raises for isolated vertices (they belong
        to no block).
        """
        node = int(self._node_of[v])
        if node < 0:
            raise KeyError(f"vertex {v} is isolated — not in any block")
        return node

    def lca(self, a: int, b: int) -> int:
        """Lowest common ancestor of tree nodes ``a`` and ``b``.

        Returns ``-1`` when the nodes live in different trees of the forest.
        """
        if self.tree_id[a] != self.tree_id[b]:
            return -1
        da, db = int(self.depth[a]), int(self.depth[b])
        if da < db:
            a, b = b, a
            da, db = db, da
        diff = da - db
        k = 0
        while diff:
            if diff & 1:
                a = int(self._up[k, a])
            diff >>= 1
            k += 1
        if a == b:
            return a
        for k in range(self._up.shape[0] - 1, -1, -1):
            ua, ub = int(self._up[k, a]), int(self._up[k, b])
            if ua != ub:
                a, b = ua, ub
        return int(self.parent[a])

    def _first_cut_towards(self, start: int, anc: int, other: int) -> int:
        """First cut node on the path ``start -> ... -> other`` via ``anc``."""
        if start >= self.n_blocks:
            return start  # start is itself a cut node
        if start != anc:
            return int(self.parent[start])  # parent of a block node is a cut
        # start is the LCA block; the path descends towards `other`: the
        # first step down is the child of `start` on the path, which is a
        # cut node.  Find it by lifting `other` to depth(start)+1.
        node = other
        diff = int(self.depth[other]) - int(self.depth[start]) - 1
        k = 0
        while diff:
            if diff & 1:
                node = int(self._up[k, node])
            diff >>= 1
            k += 1
        return node

    def boundary_aps(self, u: int, v: int) -> tuple[int, int] | None:
        """Articulation points bracketing every ``u``–``v`` path.

        Returns ``(a1, a2)`` as *graph vertex ids*: ``a1`` is the cut vertex
        through which every path leaves ``u``'s block, ``a2`` the one through
        which it enters ``v``'s block.  Returns ``None`` when both vertices
        share a block (no cut vertex is forced) and raises
        :class:`ValueError` when they are in different connected components.
        """
        nu = self.node_for_vertex(u)
        nv = self.node_for_vertex(v)
        if nu == nv:
            return None
        anc = self.lca(nu, nv)
        if anc < 0:
            raise ValueError(f"vertices {u} and {v} are not connected")
        # Adjacent block/cut nodes mean a shared block: cut vertex u or v
        # itself lies in the other's block.
        if self.parent[nu] == nv or self.parent[nv] == nu:
            # One is a cut node contained in the other's block, or a block
            # adjacent to the cut: both vertices are in one block.
            if nu >= self.n_blocks or nv >= self.n_blocks:
                return None
        c1 = self._first_cut_towards(nu, anc, nv)
        c2 = self._first_cut_towards(nv, anc, nu)
        a1 = int(self.ap_ids[c1 - self.n_blocks])
        a2 = int(self.ap_ids[c2 - self.n_blocks])
        return a1, a2

    # ------------------------------------------------------------------ #
    # Vectorised batch kernels (the bulk-query fast path)
    # ------------------------------------------------------------------ #

    def node_for_vertices(self) -> np.ndarray:
        """``node_for_vertex`` for every graph vertex, ``-1`` for isolated."""
        return self._node_of

    def _lift(self, nodes: np.ndarray, steps: np.ndarray) -> np.ndarray:
        """Lift each tree node up by its own number of ``steps`` (binary)."""
        nodes = nodes.copy()
        steps = steps.copy()
        for k in range(self._up.shape[0]):
            sel = (steps & 1).astype(bool)
            if sel.any():
                nodes[sel] = self._up[k, nodes[sel]]
            steps >>= 1
            if not steps.any():
                break
        return nodes

    def lca_many(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`lca` over equal-length node arrays.

        ``-1`` marks pairs in different trees of the forest.  One pass of
        binary lifting runs over *all* pairs at once, so the per-pair cost
        is a handful of gathers rather than a Python loop.
        """
        a = np.asarray(a, dtype=np.int64).copy()
        b = np.asarray(b, dtype=np.int64).copy()
        out = np.full(a.shape, -1, dtype=np.int64)
        same_tree = self.tree_id[a] == self.tree_id[b]
        if not same_tree.any():
            return out
        # Equalise depths (swap so a is the deeper side).
        swap = self.depth[a] < self.depth[b]
        a[swap], b[swap] = b[swap], a[swap]
        diff = (self.depth[a] - self.depth[b]).astype(np.int64)
        a = self._lift(a, np.where(same_tree, diff, 0))
        done = same_tree & (a == b)
        out[done] = a[done]
        live = same_tree & ~done
        if live.any():
            la, lb = a[live], b[live]
            for k in range(self._up.shape[0] - 1, -1, -1):
                ua, ub = self._up[k, la], self._up[k, lb]
                step = ua != ub
                la = np.where(step, ua, la)
                lb = np.where(step, ub, lb)
            out[live] = self.parent[la]
        return out

    def _first_cut_towards_many(
        self, start: np.ndarray, anc: np.ndarray, other: np.ndarray
    ) -> np.ndarray:
        """Vectorised :meth:`_first_cut_towards` over node arrays."""
        out = start.copy()
        is_block = start < self.n_blocks
        up_parent = is_block & (start != anc)
        out[up_parent] = self.parent[start[up_parent]]
        descend = is_block & (start == anc)
        if descend.any():
            node = other[descend]
            diff = (self.depth[node] - self.depth[start[descend]] - 1).astype(np.int64)
            out[descend] = self._lift(node, diff)
        return out

    def boundary_aps_many(
        self, u: np.ndarray, v: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Vectorised :meth:`boundary_aps` over vertex arrays.

        Returns ``(a1, a2, same_block, disconnected)``: per-pair boundary
        articulation points as *AP indices* (``-1`` where not applicable),
        plus the two classification masks the scalar method signals via
        ``None`` / :class:`ValueError`.  Callers are expected to have
        resolved shared-component pairs already (matching the scalar
        ``query`` flow, where ``boundary_aps`` only sees cross-block pairs).
        """
        node_of = self.node_for_vertices()
        nu = node_of[np.asarray(u, dtype=np.int64)]
        nv = node_of[np.asarray(v, dtype=np.int64)]
        k = nu.shape[0]
        a1 = np.full(k, -1, dtype=np.int64)
        a2 = np.full(k, -1, dtype=np.int64)
        same_block = nu == nv
        disconnected = np.zeros(k, dtype=bool)
        live = ~same_block
        if live.any():
            anc = np.full(k, -1, dtype=np.int64)
            anc[live] = self.lca_many(nu[live], nv[live])
            disconnected = live & (anc < 0)
            # Adjacent cut/block nodes share a block: no bracketing AP.
            adjacent = (self.parent[nu] == nv) | (self.parent[nv] == nu)
            cut_side = (nu >= self.n_blocks) | (nv >= self.n_blocks)
            same_block |= live & adjacent & cut_side
            live &= ~disconnected & ~same_block
        if live.any():
            c1 = self._first_cut_towards_many(nu[live], anc[live], nv[live])
            c2 = self._first_cut_towards_many(nv[live], anc[live], nu[live])
            a1[live] = c1 - self.n_blocks
            a2[live] = c2 - self.n_blocks
        return a1, a2, same_block, disconnected
