"""Biconnected components and articulation points.

Iterative Hopcroft–Tarjan with an explicit edge stack.  The implementation
tracks *edge ids* rather than parent vertices, which makes it correct on
multigraphs: parallel edges form a 2-edge cycle (hence a biconnected
component), and each self-loop is assigned a singleton component of its own.

This is the Stage-0 preprocessing of both Algorithm 1 (Section 2.2: "we
start by partitioning G into its biconnected components") and the MCB
pipeline (Section 3.3.1: "we process each biconnected component
separately").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..graph.csr import CSRGraph

__all__ = ["BCCDecomposition", "biconnected_components"]


@dataclass
class BCCDecomposition:
    """Result of :func:`biconnected_components`: the components and the
    per-BCC vertex index every Section 2.2 layer reads.

    Attributes
    ----------
    count:
        Number of biconnected components (including single-edge bridge
        components and singleton self-loop components).
    edge_component:
        Array of length ``m``: component id of each edge.  Every edge
        belongs to exactly one component.
    component_edges:
        ``component_edges[c]`` is the array of edge ids in component ``c``.
    component_vertices:
        ``component_vertices[c]`` is the sorted array of vertex ids touched
        by component ``c``.  A vertex's *local index* in ``c`` is its
        position here, which is how every per-component table is indexed.
    is_articulation:
        Boolean mask over vertices: True when the vertex belongs to two or
        more non-self-loop components.
    member_ptr, member_comp, member_local:
        The memberships of every vertex in CSR form: vertex ``v`` lies in
        components ``member_comp[member_ptr[v]:member_ptr[v + 1]]``
        (ascending) at the local indices ``member_local`` of the same
        slice.  An isolated vertex has none.
    ap_rank:
        Each vertex's position among the sorted articulation points (the
        row of ``A``), ``-1`` for a vertex that is not one.
    home, home_local:
        The home component of each non-articulation vertex and its local
        index there: its one multi-vertex component if it has one (a
        self-loop component reaches no other vertex), else its last
        self-loop component; ``-1`` for articulation points and isolated
        vertices.

    The index takes ``O(n + Σ|Vᵢ|)`` memory; nothing is sized
    components × articulation points.
    """

    count: int
    edge_component: np.ndarray
    component_edges: list[np.ndarray]
    component_vertices: list[np.ndarray]
    is_articulation: np.ndarray
    member_ptr: np.ndarray
    member_comp: np.ndarray
    member_local: np.ndarray
    ap_rank: np.ndarray
    home: np.ndarray
    home_local: np.ndarray

    @property
    def articulation_points(self) -> np.ndarray:
        """Sorted vertex ids of all articulation points."""
        return np.nonzero(self.is_articulation)[0]

    def memberships(self, v: int) -> list[tuple[int, int]]:
        """``(component, local index)`` of every component holding ``v``,
        in ascending component order."""
        lo, hi = self.member_ptr[v], self.member_ptr[v + 1]
        return list(zip(self.member_comp[lo:hi].tolist(), self.member_local[lo:hi].tolist()))

    def component_aps(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The articulation points of every component, in CSR form.

        Returns ``(ptr, local, rank)``: component ``c`` holds the APs of
        ranks ``rank[ptr[c]:ptr[c + 1]]`` at local indices
        ``local[ptr[c]:ptr[c + 1]]``, both ascending.
        """
        slot_vertex = np.repeat(np.arange(self.ap_rank.size), np.diff(self.member_ptr))
        slots = np.flatnonzero(self.is_articulation[slot_vertex])
        slots = slots[np.argsort(self.member_comp[slots], kind="stable")]
        ptr = np.searchsorted(self.member_comp[slots], np.arange(self.count + 1))
        return ptr, self.member_local[slots], self.ap_rank[slot_vertex[slots]]

    def ap_pairs(self) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """Every pair of articulation points that share a component.

        Yields ``(cid, li, lj, ri, rj)`` once per component holding two or
        more APs: each pair of its APs once, as local indices ``li < lj``
        and AP ranks ``ri < rj``.
        """
        ptr, local, rank = self.component_aps()
        for cid in np.flatnonzero(np.diff(ptr) >= 2):
            i, j = np.triu_indices(int(ptr[cid + 1] - ptr[cid]), k=1)
            i += ptr[cid]
            j += ptr[cid]
            yield int(cid), local[i], local[j], rank[i], rank[j]

    def component_subgraph(self, g: CSRGraph, comp_id: int) -> tuple[CSRGraph, np.ndarray]:
        """Extract component ``comp_id`` as a standalone graph.

        Returns ``(sub, vmap)`` with vertices relabelled ``0..k-1``;
        ``vmap[new] == old``.
        """
        eids = self.component_edges[comp_id]
        vmap = self.component_vertices[comp_id]
        us = np.searchsorted(vmap, g.edge_u[eids])
        vs = np.searchsorted(vmap, g.edge_v[eids])
        sub = CSRGraph(len(vmap), us, vs, g.edge_w[eids])
        return sub, vmap

    def component_keep_mask(self, g: CSRGraph, comp_id: int) -> np.ndarray:
        """Vertices of component ``comp_id`` that ear reduction must keep.

        A vertex stays in the reduced graph when its degree *within the
        component* differs from two, or when it is an articulation point of
        the whole graph (articulation points anchor the block-cut tree and
        must survive reduction for the cross-component post-processing of
        Section 2.2).  The mask is indexed like :meth:`component_subgraph`'s
        vertices.  Degrees are counted from the component's edge list (a
        self-loop counts twice, as in :attr:`CSRGraph.degree`), so a caller
        that also needs the subgraph builds it once.
        """
        eids = self.component_edges[comp_id]
        vmap = self.component_vertices[comp_id]
        ends = np.searchsorted(vmap, np.concatenate([g.edge_u[eids], g.edge_v[eids]]))
        degree = np.bincount(ends, minlength=vmap.size)
        return (degree != 2) | self.is_articulation[vmap]


def biconnected_components(g: CSRGraph) -> BCCDecomposition:
    """Decompose ``g`` into biconnected components.

    Runs in ``O(n + m)``; purely iterative, so deep DFS trees (long chains)
    do not hit the Python recursion limit.
    """
    n, m = g.n, g.m
    indptr, indices, eids = g.indptr, g.indices, g.csr_eid

    disc = np.full(n, -1, dtype=np.int64)
    low = np.zeros(n, dtype=np.int64)
    edge_component = np.full(m, -1, dtype=np.int64)
    components: list[np.ndarray] = []

    timer = 0
    # Explicit DFS stack entries: [vertex, next CSR slot, parent edge id].
    for root in range(n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer
        timer += 1
        stack: list[list[int]] = [[root, int(indptr[root]), -1]]
        estack: list[int] = []
        while stack:
            frame = stack[-1]
            u, ptr, parent_eid = frame
            if ptr < indptr[u + 1]:
                frame[1] = ptr + 1
                v = int(indices[ptr])
                eid = int(eids[ptr])
                if v == u:
                    # Self-loop: its own singleton component.
                    if edge_component[eid] == -1:
                        edge_component[eid] = len(components)
                        components.append(np.array([eid], dtype=np.int64))
                    continue
                if eid == parent_eid:
                    continue  # the unique tree edge back to the DFS parent
                if disc[v] == -1:
                    estack.append(eid)
                    disc[v] = low[v] = timer
                    timer += 1
                    stack.append([v, int(indptr[v]), eid])
                elif disc[v] < disc[u]:
                    # Genuine back edge (towards an ancestor): push once.
                    estack.append(eid)
                    if disc[v] < low[u]:
                        low[u] = disc[v]
                # disc[v] > disc[u]: forward edge to a finished subtree;
                # it was already pushed when traversed from the other side.
            else:
                stack.pop()
                if not stack:
                    continue
                p = stack[-1][0]
                if low[u] < low[p]:
                    low[p] = low[u]
                if low[u] >= disc[p]:
                    # p separates the subtree rooted at u: pop one component.
                    comp: list[int] = []
                    while True:
                        e = estack.pop()
                        comp.append(e)
                        if e == parent_eid:
                            break
                    cid = len(components)
                    for e in comp:
                        edge_component[e] = cid
                    components.append(np.asarray(comp, dtype=np.int64))

    # The vertex index, one array pass: every (component, vertex) incidence
    # once, component-major; a vertex's local index is its rank among its
    # component's sorted vertices.
    count = len(components)
    incidence = np.unique(
        np.concatenate([edge_component, edge_component]) * n
        + np.concatenate([g.edge_u, g.edge_v])
    )
    cids, vids = np.divmod(incidence, n)  # n == 0 leaves both empty
    comp_ptr = np.searchsorted(cids, np.arange(count + 1))
    local = np.arange(cids.size) - comp_ptr[cids]
    # Each self-loop has a one-vertex component of its own; every other
    # component has two or more vertices.
    multi = (np.diff(comp_ptr) > 1)[cids]
    is_articulation = np.bincount(vids[multi], minlength=n) >= 2
    ap_rank = np.full(n, -1, dtype=np.int64)
    ap_rank[is_articulation] = np.arange(int(is_articulation.sum()))
    # Home block: a non-AP vertex's one multi-vertex component, else the
    # last of its self-loop components.
    home = np.full(n, -1, dtype=np.int64)
    np.maximum.at(home, vids, cids)
    plain = multi & ~is_articulation[vids]
    home[vids[plain]] = cids[plain]
    home[is_articulation] = -1
    at_home = cids == home[vids]
    home_local = np.full(n, -1, dtype=np.int64)
    home_local[vids[at_home]] = local[at_home]
    by_vertex = np.argsort(vids, kind="stable")

    return BCCDecomposition(
        count=count,
        edge_component=edge_component,
        component_edges=components,
        component_vertices=[vids[s:e] for s, e in zip(comp_ptr[:-1], comp_ptr[1:])],
        is_articulation=is_articulation,
        member_ptr=np.concatenate([[0], np.cumsum(np.bincount(vids, minlength=n))]),
        member_comp=cids[by_vertex],
        member_local=local[by_vertex],
        ap_rank=ap_rank,
        home=home,
        home_local=home_local,
    )
