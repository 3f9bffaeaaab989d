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

from dataclasses import dataclass, field

import numpy as np

from ..graph.csr import CSRGraph

__all__ = ["BCCDecomposition", "biconnected_components"]


@dataclass
class BCCDecomposition:
    """Result of :func:`biconnected_components`.

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
        by component ``c``.
    is_articulation:
        Boolean mask over vertices: True when the vertex belongs to two or
        more non-self-loop components.
    """

    count: int
    edge_component: np.ndarray
    component_edges: list[np.ndarray]
    component_vertices: list[np.ndarray] = field(default_factory=list)
    is_articulation: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))

    @property
    def articulation_points(self) -> np.ndarray:
        """Sorted vertex ids of all articulation points."""
        return np.nonzero(self.is_articulation)[0]

    def component_subgraph(self, g: CSRGraph, comp_id: int) -> tuple[CSRGraph, np.ndarray]:
        """Extract component ``comp_id`` as a standalone graph.

        Returns ``(sub, vmap)`` with vertices relabelled ``0..k-1``;
        ``vmap[new] == old``.
        """
        eids = self.component_edges[comp_id]
        vmap = self.component_vertices[comp_id]
        inv = {int(v): i for i, v in enumerate(vmap)}
        us = np.fromiter((inv[int(g.edge_u[e])] for e in eids), dtype=np.int64, count=len(eids))
        vs = np.fromiter((inv[int(g.edge_v[e])] for e in eids), dtype=np.int64, count=len(eids))
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

    # Vertex membership per component, articulation points by membership.
    comp_vertices: list[np.ndarray] = []
    member_count = np.zeros(n, dtype=np.int64)
    for cid, comp in enumerate(components):
        verts = np.unique(
            np.concatenate([g.edge_u[comp], g.edge_v[comp]])
        )
        comp_vertices.append(verts)
        loop_only = bool(np.all(g.edge_u[comp] == g.edge_v[comp]))
        if not loop_only:
            member_count[verts] += 1
    is_articulation = member_count >= 2

    return BCCDecomposition(
        count=len(components),
        edge_component=edge_component,
        component_edges=components,
        component_vertices=comp_vertices,
        is_articulation=is_articulation,
    )
