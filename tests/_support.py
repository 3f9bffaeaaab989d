"""Shared helper functions for the test suite (importable)."""

from __future__ import annotations

import numpy as np
import scipy.sparse.csgraph as csgraph

from repro.decomposition import biconnected_components
from repro.graph import (
    CSRGraph,
    attach_blocks,
    gnm_random_graph,
    randomize_weights,
    random_biconnected_graph,
    subdivide_edges,
)
from repro.sssp.engine import adjacency_matrix


def close(a, b, atol: float = 1e-8) -> bool:
    """Distance-matrix comparison treating +inf as a sentinel."""
    return np.allclose(
        np.nan_to_num(np.asarray(a), posinf=-1.0),
        np.nan_to_num(np.asarray(b), posinf=-1.0),
        atol=atol,
    )


def composite_graph(seed: int, n: int = 30, m: int = 45) -> CSRGraph:
    """Adversarial family: random core + subdivision + grafted blocks.

    Connected for even seeds, disconnected for odd ones; always has
    articulation points, degree-2 chains, and several BCCs.
    """
    core = gnm_random_graph(n, m, seed=seed, connected=(seed % 2 == 0))
    g = subdivide_edges(randomize_weights(core, seed=seed), 0.4, seed=seed)
    return attach_blocks(g, 4, seed=seed)


def biconnected_weighted(seed: int, n: int = 40, extra: int = 25) -> CSRGraph:
    """Random biconnected graph with random weights."""
    return randomize_weights(random_biconnected_graph(n, extra, seed=seed), seed=seed)


def bridge_mask(g: CSRGraph) -> np.ndarray:
    """Bridges of ``g`` as an edge mask: one-edge biconnected components
    whose edge is not a self-loop (a loop is a one-edge component too, but
    never a bridge)."""
    mask = np.zeros(g.m, dtype=bool)
    for e in biconnected_components(g).component_edges:
        if e.size == 1 and g.edge_u[e[0]] != g.edge_v[e[0]]:
            mask[e[0]] = True
    return mask


def bridge_count(g: CSRGraph) -> int:
    """Number of bridges of ``g`` (see :func:`bridge_mask`)."""
    return int(bridge_mask(g).sum())


class GrabRecorder:
    """Each work-queue grab as ``(end, batch, device, remaining)``, in order.

    Recorded from the test side only: :meth:`install` wraps ``trace.race``,
    which ``simulate_trace`` calls once per queue stage and which returns
    each grab's device index and batch size.  A grab comes off its
    device's end; ``remaining`` is the stage's units less those grabbed so
    far.  A reference queue can call :meth:`add` directly.
    """

    def __init__(self) -> None:
        self.grabs: list[tuple] = []

    def add(self, end: str, batch: int, device: str, remaining: int) -> None:
        self.grabs.append((end, batch, device, remaining))

    def install(self, monkeypatch) -> "GrabRecorder":
        from repro.hetero import trace

        race = trace.race

        def recorded_race(devices, units, kind):
            picks, sizes = race(devices, units, kind)
            remaining = len(units)
            for j, batch in zip(picks, sizes):
                remaining -= batch
                dev = devices[j]
                self.add("back" if dev.takes_from_back else "front", batch, dev.name, remaining)
            return picks, sizes

        monkeypatch.setattr(trace, "race", recorded_race)
        return self


# The SSSP engine's chunked dispatch as it was before every source set
# became one compiled call, kept as the parity reference
# (tests/test_engine_parity.py).  Each source's search is independent, so
# the single call must match it bit for bit at every chunk size.


def chunked_multi_source(g: CSRGraph, sources, chunk_size: int) -> np.ndarray:
    """``multi_source`` in compiled calls of ``chunk_size`` sources."""
    sources = np.asarray(sources, dtype=np.int64)
    if g.n == 0:
        return np.zeros((len(sources), 0))
    if len(sources) == 0:
        return np.zeros((0, g.n))
    mat = adjacency_matrix(g)
    chunk = chunk_size
    k = len(sources)
    if k <= chunk:
        out = csgraph.dijkstra(mat, directed=False, indices=sources)
        return np.asarray(out, dtype=np.float64)
    out = np.empty((k, g.n), dtype=np.float64)
    for lo in range(0, k, chunk):
        hi = min(lo + chunk, k)
        out[lo:hi] = csgraph.dijkstra(
            mat, directed=False, indices=sources[lo:hi]
        )
    return out


def chunked_spt_forest(g: CSRGraph, sources, chunk_size: int) -> tuple[np.ndarray, np.ndarray]:
    """``spt_forest`` in compiled calls of ``chunk_size`` sources."""
    sources = np.asarray(sources, dtype=np.int64)
    mat = adjacency_matrix(g)
    chunk = chunk_size
    k = len(sources)
    if k <= chunk:
        dist, pred = csgraph.dijkstra(
            mat, directed=False, indices=sources, return_predecessors=True
        )
        return np.asarray(dist, dtype=np.float64), np.asarray(pred, dtype=np.int64)
    dist = np.empty((k, g.n), dtype=np.float64)
    pred = np.empty((k, g.n), dtype=np.int64)
    for lo in range(0, k, chunk):
        hi = min(lo + chunk, k)
        d, p = csgraph.dijkstra(
            mat, directed=False, indices=sources[lo:hi], return_predecessors=True
        )
        dist[lo:hi] = d
        pred[lo:hi] = p
    return dist, pred


# The per-BCC vertex layout as each layer derived it before
# ``biconnected_components`` built one index for all of them, kept as the
# parity reference (tests/test_bcc_index_parity.py).  The bodies are the
# old code verbatim; only the names carry a ``reference`` prefix, and the
# tree and the reduced store subclass the current classes to reuse the
# methods that did not change.

from dataclasses import dataclass, field  # noqa: E402
from typing import Callable, Sequence  # noqa: E402

import scipy.sparse as sp  # noqa: E402

from repro.apsp.bulk_query import BulkOracleIndex  # noqa: E402
from repro.apsp.ear_apsp import block_rows, ear_apsp_full  # noqa: E402
from repro.apsp.reduced_oracle import _ComponentStore  # noqa: E402
from repro.decomposition import BlockCutTree, reduce_graph  # noqa: E402
from repro.decomposition.biconnected import BCCDecomposition  # noqa: E402
from repro.graph.csr import check_vertex_ids  # noqa: E402
from repro.obs import metrics as _metrics  # noqa: E402
from repro.obs.trace import span as _span  # noqa: E402
from repro.sssp.engine import ZERO_WEIGHT_NUDGE, all_pairs  # noqa: E402


def reference_component_subgraph(
    bcc: BCCDecomposition, g: CSRGraph, comp_id: int
) -> tuple[CSRGraph, np.ndarray]:
    """``BCCDecomposition.component_subgraph`` with its vertex-keyed dict."""
    eids = bcc.component_edges[comp_id]
    vmap = bcc.component_vertices[comp_id]
    inv = {int(v): i for i, v in enumerate(vmap)}
    us = np.fromiter((inv[int(g.edge_u[e])] for e in eids), dtype=np.int64, count=len(eids))
    vs = np.fromiter((inv[int(g.edge_v[e])] for e in eids), dtype=np.int64, count=len(eids))
    sub = CSRGraph(len(vmap), us, vs, g.edge_w[eids])
    return sub, vmap


@dataclass
class ReferenceComponentTables:
    """``ComponentTables`` with its AP dict and vertex-keyed memberships."""

    bcc: BCCDecomposition
    tables: list[np.ndarray]
    ap_ids: np.ndarray
    ap_index: dict[int, int]
    ap_matrix: np.ndarray
    vertex_local: dict[int, list[tuple[int, int]]] = field(default_factory=dict)

    def component_of(self, v: int) -> list[tuple[int, int]]:
        """``(component id, local index)`` memberships of vertex ``v``."""
        return self.vertex_local.get(int(v), [])


def reference_build_component_tables(g: CSRGraph, solver=ear_apsp_full, bcc=None):
    """``build_component_tables`` with its dict-of-pairs AP graph."""
    if bcc is None:
        bcc = biconnected_components(g)
    tables: list[np.ndarray] = []
    vertex_local: dict[int, list[tuple[int, int]]] = {}
    for cid in range(bcc.count):
        sub, vmap = reference_component_subgraph(bcc, g, cid)
        tables.append(solver(sub))
        for local, v in enumerate(vmap):
            vertex_local.setdefault(int(v), []).append((cid, local))

    ap_ids = bcc.articulation_points
    ap_index = {int(v): i for i, v in enumerate(ap_ids)}
    a = len(ap_ids)
    if a:
        # AP graph: clique per component over its APs, weighted by the
        # already-exact intra-component distances.  Two APs can share more
        # than one component, so pairs are deduplicated keeping the minimum
        # (COO duplicates would otherwise *sum* on CSR conversion).
        best: dict[tuple[int, int], float] = {}
        for cid in range(bcc.count):
            verts = bcc.component_vertices[cid]
            local_aps = [
                (ap_index[int(v)], i)
                for i, v in enumerate(verts)
                if int(v) in ap_index
            ]
            for x, (gi, li) in enumerate(local_aps):
                for gj, lj in local_aps[x + 1 :]:
                    w = float(tables[cid][li, lj])
                    if not np.isfinite(w):
                        continue
                    key = (min(gi, gj), max(gi, gj))
                    w = max(w, ZERO_WEIGHT_NUDGE)
                    if key not in best or w < best[key]:
                        best[key] = w
        if best:
            rows = np.fromiter((k[0] for k in best), dtype=np.int64, count=len(best))
            cols = np.fromiter((k[1] for k in best), dtype=np.int64, count=len(best))
            vals = np.fromiter(best.values(), dtype=np.float64, count=len(best))
            mat = sp.coo_matrix((vals, (rows, cols)), shape=(a, a)).tocsr()
        else:
            mat = sp.csr_matrix((a, a))
        ap_matrix = np.asarray(
            csgraph.dijkstra(mat, directed=False), dtype=np.float64
        )
        np.fill_diagonal(ap_matrix, 0.0)
    else:
        ap_matrix = np.zeros((0, 0), dtype=np.float64)

    return ReferenceComponentTables(
        bcc=bcc,
        tables=tables,
        ap_ids=ap_ids,
        ap_index=ap_index,
        ap_matrix=ap_matrix,
        vertex_local=vertex_local,
    )


def reference_assemble_full_matrix(g: CSRGraph, ct: ReferenceComponentTables) -> np.ndarray:
    """``assemble_full_matrix`` with its ``ap_pos`` / ``members`` /
    ``comp_aps`` prelude."""
    n = g.n
    bcc = ct.bcc
    a = len(ct.ap_ids)
    ap_pos = np.full(n, -1, dtype=np.int64)
    ap_pos[ct.ap_ids] = np.arange(a)
    members = np.zeros(n, dtype=np.int64)
    # Per component: (global AP index, local index) of each of its APs.
    comp_aps: list[tuple[np.ndarray, np.ndarray]] = []
    for verts in bcc.component_vertices:
        members[verts] += 1
        local = np.flatnonzero(ap_pos[verts] >= 0)
        comp_aps.append((ap_pos[verts[local]], local))

    # ap_to_all[k, v]: exact distance from AP k to every vertex v, built
    # per component as min over that component's APs.
    ap_to_all = np.full((a, n), np.inf, dtype=np.float64)
    for cid, (gks, lks) in enumerate(comp_aps):
        if not gks.size:
            continue
        verts = bcc.component_vertices[cid]
        table = ct.tables[cid]
        blk = ap_to_all[:, verts]
        cand = np.empty_like(blk)
        for gk, lk in zip(gks, lks):
            np.add(ct.ap_matrix[:, gk, None], table[lk], out=cand)
            np.minimum(blk, cand, out=blk)
        ap_to_all[:, verts] = blk

    def candidates(blk: np.ndarray, cand: np.ndarray, cid: int, rows: np.ndarray) -> None:
        """``blk[i]``: minimum over component ``cid``'s candidates of its
        local row ``rows[i]``."""
        verts = bcc.component_vertices[cid]
        table = ct.tables[cid]
        blk.fill(np.inf)
        blk[:, verts] = table[rows]
        gks, lks = comp_aps[cid]
        for gk, lk in zip(gks, lks):
            np.add(table[rows, lk, None], ap_to_all[gk], out=cand)
            np.minimum(blk, cand, out=blk)

    out = np.empty((n, n), dtype=np.float64)
    b = block_rows(n)
    block = np.empty((b, n), dtype=np.float64)
    scratch = np.empty((b if a else 0, n), dtype=np.float64)  # AP candidates; none without APs
    for cid, verts in enumerate(bcc.component_vertices):
        own = np.flatnonzero(members[verts] == 1)
        for j0 in range(0, own.size, b):
            rows = own[j0 : j0 + b]
            blk = block[: rows.size]
            candidates(blk, scratch[: rows.size], cid, rows)
            blk[np.arange(rows.size), verts[rows]] = 0.0
            out[verts[rows]] = blk
    for v in np.flatnonzero(members != 1):
        row = out[v]
        row.fill(np.inf)
        for cid, lv in ct.component_of(v):
            candidates(block[:1], scratch[:1], cid, np.array([lv]))
            np.minimum(row, block[0], out=row)
        row[v] = 0.0
    return out


class ReferenceBlockCutTree(BlockCutTree):
    """``BlockCutTree`` with its AP dict, per-vertex adjacency loop and
    two-pass home-block loop; the LCA and boundary methods are inherited."""

    def __init__(self, g: CSRGraph, bcc: BCCDecomposition) -> None:
        self.bcc = bcc
        self.n_blocks = bcc.count
        self.ap_ids = bcc.articulation_points
        self.ap_index = {int(v): i for i, v in enumerate(self.ap_ids)}
        n_nodes = self.n_blocks + len(self.ap_ids)
        self.n_nodes = n_nodes

        adj: list[list[int]] = [[] for _ in range(n_nodes)]
        for cid in range(bcc.count):
            for v in bcc.component_vertices[cid]:
                k = self.ap_index.get(int(v))
                if k is not None:
                    cut = self.n_blocks + k
                    adj[cid].append(cut)
                    adj[cut].append(cid)
        self.adj = adj

        # For every non-articulation vertex, its home block.  A vertex with
        # self-loops additionally sits in one single-vertex block per loop;
        # those never reach any other vertex, so the multi-vertex block (if
        # any) must win — hence the two passes.
        self._vertex_block = np.full(g.n, -1, dtype=np.int64)
        for multi in (False, True):
            for cid in range(bcc.count):
                if (len(bcc.component_vertices[cid]) > 1) != multi:
                    continue
                for v in bcc.component_vertices[cid]:
                    if not bcc.is_articulation[v]:
                        self._vertex_block[v] = cid

        # BFS forest + binary lifting tables.
        self.parent = np.full(n_nodes, -1, dtype=np.int64)
        self.depth = np.zeros(n_nodes, dtype=np.int64)
        self.tree_id = np.full(n_nodes, -1, dtype=np.int64)
        tid = 0
        order: list[int] = []
        for root in range(n_nodes):
            if self.tree_id[root] != -1:
                continue
            self.tree_id[root] = tid
            queue = [root]
            while queue:
                u = queue.pop()
                order.append(u)
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

    def node_for_vertex(self, v: int) -> int:
        k = self.ap_index.get(int(v))
        if k is not None:
            return self.n_blocks + k
        b = int(self._vertex_block[v])
        if b < 0:
            raise KeyError(f"vertex {v} is isolated — not in any block")
        return b

    def node_for_vertices(self) -> np.ndarray:
        out = self._vertex_block.copy()
        for v, k in self.ap_index.items():
            out[v] = self.n_blocks + k
        return out


#: Component-local distance kernel: ``dist_many(cid, lu, lv)``.
DistManyFn = Callable[[int, np.ndarray, np.ndarray], np.ndarray]

_C_BATCHES = _metrics.counter("bulk_query.batches")
_C_PAIRS = _metrics.counter("bulk_query.pairs")
_C_SAME = _metrics.counter("bulk_query.same_component_pairs")
_C_CROSS = _metrics.counter("bulk_query.cross_component_pairs")
_C_UNREACH = _metrics.counter("bulk_query.unreachable_pairs")
_C_GROUPS = _metrics.counter("bulk_query.component_groups")


class ReferenceBulkOracleIndex:
    """``BulkOracleIndex`` with its own ``is_ap`` / ``ap_idx_of`` /
    ``comp_of`` / ``local_of`` / ``ap_local`` / ``member`` arrays."""

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


class ReferenceDistanceOracle:
    """``DistanceOracle`` over the reference tables, tree and bulk index."""

    def __init__(self, g: CSRGraph) -> None:
        self.graph = g
        bcc = biconnected_components(g)
        self.tables = reference_build_component_tables(g, solver=ear_apsp_full, bcc=bcc)
        self.tree = ReferenceBlockCutTree(g, bcc)
        # Local index of each vertex inside each of its components.
        self._local = self.tables.vertex_local
        self._bulk = None  # built lazily on the first query_many

    def _local_index(self, cid: int, v: int) -> int:
        for c, li in self._local[int(v)]:
            if c == cid:
                return li
        raise KeyError(f"vertex {v} not in component {cid}")

    def query(self, u: int, v: int) -> float:
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
            tables = self.tables.tables

            def dist_many(cid: int, lu: np.ndarray, lv: np.ndarray) -> np.ndarray:
                return np.asarray(tables[cid][lu, lv], dtype=np.float64)

            self._bulk = ReferenceBulkOracleIndex(
                self.graph.n,
                self.tree,
                self.tables.bcc.component_vertices,
                dist_many,
                ap_matrix=np.asarray(self.tables.ap_matrix, dtype=np.float64),
            )
        return self._bulk

    def query_many(self, pairs: np.ndarray) -> np.ndarray:
        return self._bulk_index().query_many(pairs)

    def memory_bytes(self, dtype_bytes: int = 4) -> int:
        total = self.tables.ap_matrix.size
        total += sum(t.size for t in self.tables.tables)
        return int(total) * dtype_bytes


class _ReferenceComponentStore(_ComponentStore):
    """The reduced oracle's store with its vertex-keyed ``local`` dict."""

    __slots__ = ("vmap", "local")

    def __init__(self, red, table: np.ndarray, vmap: np.ndarray):
        super().__init__(red, table)
        self.vmap = vmap            # component-local -> global vertex ids
        self.local = {int(v): i for i, v in enumerate(vmap)}


class ReferenceReducedDistanceOracle:
    """``ReducedDistanceOracle`` with its memberships dict, AP dict and
    its own articulation closure over the bulk index's ``ap_shared``."""

    def __init__(self, g: CSRGraph) -> None:
        self.graph = g
        bcc = biconnected_components(g)
        self.tree = ReferenceBlockCutTree(g, bcc)
        self.bcc = bcc
        self.stores: list[_ReferenceComponentStore] = []
        self._memberships: dict[int, list[int]] = {}
        for cid in range(bcc.count):
            sub, vmap = reference_component_subgraph(bcc, g, cid)
            red = reduce_graph(sub, keep=bcc.component_keep_mask(g, cid))
            table = all_pairs(red.simple_graph())
            self.stores.append(_ReferenceComponentStore(red, table, vmap))
            for v in vmap:
                self._memberships.setdefault(int(v), []).append(cid)
        # Vectorized classification index; its ``ap_shared`` matrix is the
        # min intra-component distance per co-located AP pair — exactly the
        # edge list the articulation closure is built from, so the closure
        # construction below is one sparse-Dijkstra over its finite entries.
        self.ap_ids = bcc.articulation_points
        self.ap_index = {int(v): i for i, v in enumerate(self.ap_ids)}
        self._bulk = ReferenceBulkOracleIndex(
            g.n,
            self.tree,
            bcc.component_vertices,
            lambda cid, lu, lv: self.stores[cid].dist_many(lu, lv),
        )
        a = len(self.ap_ids)
        if a:
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
        return self._bulk.query_many(pairs)

    def memory_bytes(self, dtype_bytes: int = 4) -> int:
        entries = int(self.ap_matrix.size) + sum(s.entries() for s in self.stores)
        return entries * dtype_bytes
