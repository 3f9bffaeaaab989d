"""Banerjee et al. [4] baseline: BCC decomposition + pendant peeling.

The comparison baseline of Figure 2 (general graphs).  It decomposes the
graph by biconnected components and block-cut tree exactly like Section
2.2, but solves every component with plain repeated Dijkstra — no ear
reduction — after first peeling iterative degree-1 ("pendant") vertices,
which is the one structural optimisation [4] applies.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from ..sssp.engine import all_pairs
from .composition import assemble_full_matrix, build_component_tables

__all__ = ["peel_pendants", "bcc_apsp"]


def peel_pendants(g: CSRGraph) -> tuple[CSRGraph, np.ndarray, list[tuple[int, int, float]]]:
    """Iteratively remove degree-1 vertices.

    Returns
    -------
    (core, core_ids, peel):
        ``core`` is the 2-core-ish remainder relabelled over ``core_ids``
        (original ids of surviving vertices); ``peel`` lists the removals
        in order as ``(pendant, support, weight)`` tuples in *original*
        ids — replaying it in reverse re-attaches every pendant.
    """
    n = g.n
    alive = np.ones(n, dtype=bool)
    deg = g.degree.copy()
    # Remaining incident edges per vertex, maintained lazily.
    indptr, indices, eids, weights = g.indptr, g.indices, g.csr_eid, g.weights
    edge_alive = np.ones(g.m, dtype=bool)
    stack = [v for v in range(n) if deg[v] == 1]
    peel: list[tuple[int, int, float]] = []
    while stack:
        v = stack.pop()
        if not alive[v] or deg[v] != 1:
            continue
        # Find the unique live incident edge.
        for slot in range(indptr[v], indptr[v + 1]):
            e = int(eids[slot])
            if edge_alive[e]:
                u = int(indices[slot])
                w = float(weights[slot])
                edge_alive[e] = False
                break
        else:  # pragma: no cover - deg bookkeeping guarantees an edge
            continue
        alive[v] = False
        deg[v] = 0
        deg[u] -= 1
        peel.append((v, u, w))
        if deg[u] == 1:
            stack.append(u)
    core_ids = np.nonzero(alive)[0]
    keep_edges = [
        e for e in range(g.m)
        if edge_alive[e] and alive[g.edge_u[e]] and alive[g.edge_v[e]]
    ]
    inv = np.full(n, -1, dtype=np.int64)
    inv[core_ids] = np.arange(core_ids.size)
    core = CSRGraph(
        core_ids.size,
        inv[g.edge_u[keep_edges]],
        inv[g.edge_v[keep_edges]],
        g.edge_w[keep_edges],
    )
    return core, core_ids, peel


def bcc_apsp(g: CSRGraph, peel: bool = True) -> np.ndarray:
    """Full APSP matrix via the [4] pipeline.

    ``peel=False`` disables pendant removal (then the pendants simply show
    up as single-edge biconnected components, which costs more AP-table
    work — the effect [4] optimises away).
    """
    n = g.n
    if not peel:
        ct = build_component_tables(g, solver=all_pairs)
        return assemble_full_matrix(g, ct)

    core, core_ids, peel_ops = peel_pendants(g)
    if not peel_ops:
        # Nothing peeled: the core is ``g`` itself, so its assembled
        # matrix is the answer; embedding it would only copy it.
        return assemble_full_matrix(core, build_component_tables(core, solver=all_pairs))
    out = np.full((n, n), np.inf, dtype=np.float64)
    if core.n:
        ct = build_component_tables(core, solver=all_pairs)
        core_mat = assemble_full_matrix(core, ct)
        out[np.ix_(core_ids, core_ids)] = core_mat
    # Re-attach pendants in reverse removal order: when v re-enters, its
    # support u already has correct rows, so d(v, ·) = w + d(u, ·).
    for v, u, w in reversed(peel_ops):
        row = out[u, :] + w
        out[v, :] = row
        out[:, v] = row
        out[v, v] = 0.0
    np.fill_diagonal(out, 0.0)
    return out
