"""Deterministic synthetic graph generators.

These provide the building blocks for the Table-1 dataset stand-ins (see
``repro.datasets``): biconnected cores (meshes, Delaunay triangulations,
random regular-ish graphs), degree-2 chain injection via edge subdivision,
and grafting of extra biconnected components to control the block structure.

All generators take an integer ``seed`` and are reproducible across runs.
"""

from __future__ import annotations

import numpy as np

from .csr import CSRGraph, GraphError

__all__ = [
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "grid_graph",
    "delaunay_graph",
    "gnm_random_graph",
    "random_biconnected_graph",
    "preferential_attachment_graph",
    "subdivide_edges",
    "attach_blocks",
    "randomize_weights",
    "planar_graph",
]


def path_graph(n: int, weight: float = 1.0) -> CSRGraph:
    """Simple path ``0 - 1 - ... - n-1``."""
    if n < 1:
        raise GraphError("path needs at least one vertex")
    idx = np.arange(n - 1)
    return CSRGraph(n, idx, idx + 1, np.full(n - 1, weight))


def cycle_graph(n: int, weight: float = 1.0) -> CSRGraph:
    """Simple cycle on ``n >= 3`` vertices."""
    if n < 3:
        raise GraphError("cycle needs at least three vertices")
    idx = np.arange(n)
    return CSRGraph(n, idx, (idx + 1) % n, np.full(n, weight))


def complete_graph(n: int, weight: float = 1.0) -> CSRGraph:
    """Complete graph K_n."""
    iu = np.triu_indices(n, k=1)
    return CSRGraph(n, iu[0], iu[1], np.full(iu[0].size, weight))


def grid_graph(rows: int, cols: int) -> CSRGraph:
    """2-D grid mesh (biconnected for rows, cols >= 2)."""
    if rows < 1 or cols < 1:
        raise GraphError("grid dimensions must be positive")
    ids = np.arange(rows * cols).reshape(rows, cols)
    us = np.concatenate([ids[:, :-1].ravel(), ids[:-1, :].ravel()])
    vs = np.concatenate([ids[:, 1:].ravel(), ids[1:, :].ravel()])
    return CSRGraph(rows * cols, us, vs)


def delaunay_graph(n: int, seed: int = 0) -> CSRGraph:
    """Delaunay triangulation of ``n`` random points in the unit square.

    This is the stand-in for the ``delaunay_nXX`` rows of Table 1: planar,
    biconnected, and with essentially zero degree-2 vertices.  Edge weights
    are the Euclidean lengths scaled to the ``(0, 2]`` range.
    """
    import scipy.spatial  # here, not at module level: ``import repro`` skips it

    if n < 3:
        raise GraphError("Delaunay needs at least three points")
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    tri = scipy.spatial.Delaunay(pts)
    sim = tri.simplices
    pairs = np.concatenate([sim[:, [0, 1]], sim[:, [1, 2]], sim[:, [0, 2]]])
    lo = pairs.min(axis=1)
    hi = pairs.max(axis=1)
    keys = lo.astype(np.int64) * n + hi
    _, first = np.unique(keys, return_index=True)
    lo, hi = lo[first], hi[first]
    w = np.linalg.norm(pts[lo] - pts[hi], axis=1)
    w = np.maximum(w / max(w.max(), 1e-12) * 2.0, 1e-6)
    return CSRGraph(n, lo, hi, w)


def gnm_random_graph(n: int, m: int, seed: int = 0, connected: bool = True) -> CSRGraph:
    """Erdos–Renyi G(n, m) simple graph; optionally forced connected.

    Connectivity is enforced by first laying down a uniform random spanning
    tree (random-walk free variant: random parent among earlier vertices),
    then sampling the remaining edges without replacement.
    """
    max_m = n * (n - 1) // 2
    if m > max_m:
        raise GraphError(f"too many edges requested: {m} > {max_m}")
    rng = np.random.default_rng(seed)
    chosen: set[tuple[int, int]] = set()
    us: list[int] = []
    vs: list[int] = []
    if connected:
        if m < n - 1:
            raise GraphError("connected graph needs at least n-1 edges")
        perm = rng.permutation(n)
        for i in range(1, n):
            j = int(rng.integers(0, i))
            a, b = int(perm[i]), int(perm[j])
            key = (min(a, b), max(a, b))
            chosen.add(key)
            us.append(key[0])
            vs.append(key[1])
    while len(chosen) < m:
        batch = rng.integers(0, n, size=(max(64, m - len(chosen)), 2))
        for a, b in batch:
            if a == b:
                continue
            key = (int(min(a, b)), int(max(a, b)))
            if key in chosen:
                continue
            chosen.add(key)
            us.append(key[0])
            vs.append(key[1])
            if len(chosen) == m:
                break
    return CSRGraph(n, us, vs, rng.random(m) + 0.5)


def random_biconnected_graph(n: int, extra_edges: int, seed: int = 0) -> CSRGraph:
    """Random biconnected graph: a Hamiltonian cycle plus random chords.

    A cycle is 2-connected and adding chords preserves that, so the result
    is biconnected by construction — the precondition of Algorithm 1.
    """
    if n < 3:
        raise GraphError("biconnected graph needs at least three vertices")
    rng = np.random.default_rng(seed)
    base = cycle_graph(n)
    chosen = {
        (min(int(u), int(v)), max(int(u), int(v)))
        for u, v in zip(base.edge_u, base.edge_v)
    }
    us = list(base.edge_u)
    vs = list(base.edge_v)
    target = len(chosen) + extra_edges
    max_m = n * (n - 1) // 2
    target = min(target, max_m)
    while len(chosen) < target:
        a, b = rng.integers(0, n, size=2)
        if a == b:
            continue
        key = (int(min(a, b)), int(max(a, b)))
        if key in chosen:
            continue
        chosen.add(key)
        us.append(key[0])
        vs.append(key[1])
    return CSRGraph(n, us, vs, rng.random(len(us)) + 0.5)


def preferential_attachment_graph(n: int, m_per_node: int, seed: int = 0) -> CSRGraph:
    """Barabasi–Albert style scale-free graph (stand-in for social/AS nets)."""
    if m_per_node < 1 or n <= m_per_node:
        raise GraphError("need n > m_per_node >= 1")
    rng = np.random.default_rng(seed)
    targets = list(range(m_per_node))
    repeated: list[int] = list(range(m_per_node))
    us: list[int] = []
    vs: list[int] = []
    for v in range(m_per_node, n):
        # Sample m distinct targets proportional to degree.
        picks: set[int] = set()
        while len(picks) < m_per_node:
            picks.add(int(repeated[rng.integers(0, len(repeated))]))
        for t in picks:
            us.append(v)
            vs.append(t)
            repeated.append(v)
            repeated.append(t)
        targets.append(v)
    w = rng.random(len(us)) + 0.5
    return CSRGraph(n, us, vs, w)


def subdivide_edges(
    g: CSRGraph,
    fraction: float,
    seed: int = 0,
    chain_length: tuple[int, int] = (1, 3),
) -> CSRGraph:
    """Replace a random fraction of edges by degree-2 chains.

    Each selected edge ``(u, v, w)`` becomes a path ``u - x1 - ... - xk - v``
    whose edge weights sum to ``w`` (so all pairwise distances are exactly
    preserved), with ``k`` drawn uniformly from ``chain_length``.

    This is the principal knob for matching the paper's "Nodes Removed (%)"
    column: subdivision inserts exactly the degree-2 vertices that ear
    decomposition later removes.
    """
    if not 0.0 <= fraction <= 1.0:
        raise GraphError("fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)
    n_sel = int(round(fraction * g.m))
    if n_sel == 0:
        return g
    sel = rng.choice(g.m, size=n_sel, replace=False)
    sel_mask = np.zeros(g.m, dtype=bool)
    sel_mask[sel] = True
    us = list(g.edge_u[~sel_mask])
    vs = list(g.edge_v[~sel_mask])
    ws = list(g.edge_w[~sel_mask])
    nxt = g.n
    lo, hi = chain_length
    for eid in sel:
        u, v = int(g.edge_u[eid]), int(g.edge_v[eid])
        w = float(g.edge_w[eid])
        k = int(rng.integers(lo, hi + 1))
        cuts = np.sort(rng.random(k)) * w
        bounds = np.concatenate([[0.0], cuts, [w]])
        seg = np.maximum(np.diff(bounds), w * 1e-9)
        seg *= w / seg.sum()
        chain = [u] + list(range(nxt, nxt + k)) + [v]
        nxt += k
        for (a, b), sw in zip(zip(chain[:-1], chain[1:]), seg):
            us.append(a)
            vs.append(b)
            ws.append(float(sw))
    return CSRGraph(nxt, us, vs, ws)


def subdivide_to_count(
    g: CSRGraph,
    n_insert: int,
    seed: int = 0,
    chain_length: tuple[int, int] = (1, 3),
) -> CSRGraph:
    """Subdivide random edges until exactly ``n_insert`` vertices are added.

    Like :func:`subdivide_edges` but targeting an absolute vertex budget —
    the knob the Table-1 stand-ins use to hit a "Nodes Removed %" column
    value exactly.
    """
    if n_insert < 0:
        raise GraphError("n_insert must be non-negative")
    if n_insert == 0 or g.m == 0:
        return g
    rng = np.random.default_rng(seed)
    us = list(g.edge_u)
    vs = list(g.edge_v)
    ws = list(g.edge_w)
    nxt = g.n
    remaining = n_insert
    # Pick distinct original edges first; fall back to re-subdividing new
    # chain edges if the budget exceeds the edge count.
    order = list(rng.permutation(g.m))
    cursor = 0
    lo, hi = chain_length
    while remaining > 0:
        if cursor < len(order):
            eid = int(order[cursor])
            cursor += 1
        else:
            eid = int(rng.integers(0, len(us)))
        u, v, w = us[eid], vs[eid], ws[eid]
        k = int(min(remaining, rng.integers(lo, hi + 1)))
        cuts = np.sort(rng.random(k)) * w
        bounds = np.concatenate([[0.0], cuts, [w]])
        seg = np.maximum(np.diff(bounds), w * 1e-9)
        seg *= w / seg.sum() if seg.sum() else 1.0
        chain = [u] + list(range(nxt, nxt + k)) + [v]
        nxt += k
        remaining -= k
        # Replace the picked edge in place with the first chain segment,
        # append the rest.
        us[eid], vs[eid], ws[eid] = chain[0], chain[1], float(seg[0])
        for (a, b), sw in zip(zip(chain[1:-1], chain[2:]), seg[1:]):
            us.append(a)
            vs.append(b)
            ws.append(float(sw))
    return CSRGraph(nxt, us, vs, ws)


def attach_blocks(
    g: CSRGraph,
    n_blocks: int,
    seed: int = 0,
    block_size: tuple[int, int] = (3, 8),
    style: str = "cycle",
) -> CSRGraph:
    """Graft ``n_blocks`` small biconnected blocks onto random vertices.

    Each grafted block shares exactly one vertex with the host graph, so it
    becomes a separate biconnected component and the shared vertex becomes an
    articulation point.  This controls the "#BCCs" column of Table 1.

    ``style="cycle"`` grafts rings (their interiors are degree-2 and will be
    removed by ear reduction); ``style="clique"`` grafts complete blocks
    (degree ≥ 3 interiors survive reduction, so the grafts leave the
    "Nodes Removed" column untouched).
    """
    if style not in ("cycle", "clique"):
        raise GraphError(f"unknown block style {style!r}")
    rng = np.random.default_rng(seed)
    us = list(g.edge_u)
    vs = list(g.edge_v)
    ws = list(g.edge_w)
    nxt = g.n
    for _ in range(n_blocks):
        anchor = int(rng.integers(0, g.n))
        size = int(rng.integers(block_size[0], block_size[1] + 1))
        if style == "clique":
            size = max(size, 4)  # K3 interiors would be degree 2
        ring = [anchor] + list(range(nxt, nxt + size - 1))
        nxt += size - 1
        if style == "cycle":
            pairs = list(zip(ring, ring[1:] + [anchor]))
        else:
            pairs = [
                (ring[i], ring[j])
                for i in range(len(ring))
                for j in range(i + 1, len(ring))
            ]
        for a, b in pairs:
            us.append(a)
            vs.append(b)
            ws.append(float(rng.random() + 0.5))
    return CSRGraph(nxt, us, vs, ws)


def randomize_weights(g: CSRGraph, seed: int = 0, low: float = 0.5, high: float = 1.5) -> CSRGraph:
    """Replace all edge weights by uniform randoms in ``[low, high)``."""
    rng = np.random.default_rng(seed)
    return g.with_weights(rng.uniform(low, high, size=g.m))


def planar_graph(
    n: int,
    seed: int = 0,
    subdivision_fraction: float = 0.1,
    deletion_fraction: float = 0.15,
) -> CSRGraph:
    """OGDF-style random connected planar graph.

    A Delaunay triangulation is planar; deleting a random subset of its
    edges (keeping connectivity via a spanning-tree guard) and subdividing a
    fraction of the rest preserves planarity while introducing degree-2
    vertices, matching the Planar_1..5 rows of Table 1.
    """
    base = delaunay_graph(max(n, 4), seed=seed)
    rng = np.random.default_rng(seed + 1)
    # Guard a spanning tree so that deletions keep the graph connected.
    import scipy.sparse.csgraph as csgraph

    from .builders import to_scipy

    mst = csgraph.minimum_spanning_tree(to_scipy(base))
    mst_coo = mst.tocoo()
    tree_pairs = {
        (min(int(a), int(b)), max(int(a), int(b)))
        for a, b in zip(mst_coo.row, mst_coo.col)
    }
    keep = np.ones(base.m, dtype=bool)
    for eid in range(base.m):
        a, b = base.edge_endpoints(eid)
        if (min(a, b), max(a, b)) in tree_pairs:
            continue
        if rng.random() < deletion_fraction:
            keep[eid] = False
    pruned = base.edge_subgraph(np.nonzero(keep)[0])
    return subdivide_edges(pruned, subdivision_fraction, seed=seed + 2)
