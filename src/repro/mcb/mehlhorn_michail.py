"""Mehlhorn–Michail MCB: FVS-rooted candidates + label-propagated scans.

This is the paper's *processing phase* (Section 3.3.2) in full:

* shortest-path trees ``T_z`` from every vertex of a feedback vertex set;
* the candidate family ``A = {C_ze}`` (optionally restricted to pairs with
  ``lca_{T_z}(u, v) = z`` — the Mehlhorn–Michail reduction — in which case
  every candidate is a simple cycle), sorted by weight into the hybrid
  array/linked-list :class:`CandidateStore`;
* per phase, **Algorithm 3**: labels ``l_z(u) = ⟨path_z(u), S⟩`` computed
  by two tree passes (a gather of witness bits onto parent edges, then a
  level-order prefix-xor), making each candidate's orthogonality test O(1):
  ``⟨C_ze, S⟩ = l_z(u) ⊕ l_z(v) ⊕ S(e)``;
* batched scanning of the store for the first (lightest) odd candidate;
* the vectorized witness update (independence test).

The work is factored into :class:`MMContext` methods — one shortest-path
tree's labels, one batch scan, one witness-block update — precisely the
work units the heterogeneous executor schedules across CPU and (simulated)
GPU for Table 2 / Figures 5–6.

Weight ordering uses a deterministic tie-breaking perturbation (see
:func:`repro.mcb.horton.perturbed_weights`); reported cycle weights are
exact, and the suite checks totals against de Pina.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graph.csr import CSRGraph
from ..obs import metrics as _metrics
from ..obs.trace import span as _span
from ..sssp.engine import spt_forest
from . import gf2
from .candidate_store import CandidateStore
from .cycle import Cycle
from .fvs import greedy_fvs
from .horton import perturbed_weights
from .spanning import SpanningStructure, spanning_structure

__all__ = ["MMReport", "MMContext", "mm_mcb"]

_C_XORS = _metrics.counter("mcb.witness_xors")
_C_ORTHO = _metrics.counter("mcb.orthogonality_checks")
_C_PHASES = _metrics.counter("mcb.mm.phases")

_NO_PRED = -9999  # scipy's predecessor sentinel


@dataclass
class MMReport:
    """Work counts of one Mehlhorn–Michail run.

    The per-phase steps are timed by the ``mm.*`` spans; this report holds
    what the heterogeneous trace needs to size each step's work units.
    """

    n: int = 0  # vertices of the solved graph
    m: int = 0  # edges of the solved graph
    f: int = 0
    n_fvs: int = 0
    n_candidates: int = 0
    tested: list[int] = field(default_factory=list)  # candidates tested per phase
    witness_bytes: int = 0
    store_bytes: int = 0


class MMContext:
    """Precomputed state for one Mehlhorn–Michail run.

    All heavy per-phase operations are exposed as methods over explicit
    work-unit granularity (one tree, one witness block) so that execution
    policy — sequential, thread pool, simulated GPU, heterogeneous queue —
    is chosen by the caller.
    """

    def __init__(
        self,
        g: CSRGraph,
        lca_filter: bool = True,
        perturb: bool = True,
        block_size: int = 512,
    ) -> None:
        self.graph = g
        self.ss: SpanningStructure = spanning_structure(g)
        self.f = self.ss.f
        if self.f == 0:
            self.fvs = np.empty(0, dtype=np.int64)
            self.n = g.n
            return
        self.fvs = greedy_fvs(g)
        self.n = g.n
        pw = perturbed_weights(g) if perturb else g.edge_w
        self._pg = g.with_weights(pw)

        # Shortest-path trees from every FVS root (compiled bulk call).
        # Perturbed weights make each tree the unique SPT, which the
        # lca-filtered candidate theorem of [29] requires.
        self.dist, self.parent = spt_forest(self._pg, self.fvs)

        # Min-weight representative edge per vertex pair (perturbation makes
        # it unique), for mapping tree arcs back to edge ids.
        self._pair_edge: dict[tuple[int, int], int] = {}
        order = np.argsort(pw)[::-1]  # heavier first so lightest wins last
        for e in order:
            u, v = g.edge_endpoints(int(e))
            if u != v:
                self._pair_edge[(min(u, v), max(u, v))] = int(e)

        self._build_tree_tables()
        self._build_candidates(lca_filter)
        self.block_size = block_size

    # ------------------------------------------------------------------ #
    # Setup
    # ------------------------------------------------------------------ #

    def _build_tree_tables(self) -> None:
        """Depths, level ordering, and parent-edge E' indices per tree."""
        k, n = self.parent.shape
        self.depth = np.full((k, n), -1, dtype=np.int64)
        self.parent_ep = np.full((k, n), -1, dtype=np.int64)
        self.parent_eid = np.full((k, n), -1, dtype=np.int64)
        self.levels: list[list[np.ndarray]] = []
        ep_of_edge = self.ss.eprime_index
        for zi in range(k):
            par = self.parent[zi]
            root = int(self.fvs[zi])
            reachable = np.isfinite(self.dist[zi])
            order = np.argsort(self.dist[zi], kind="stable")
            depth = self.depth[zi]
            depth[root] = 0
            for v in order:
                v = int(v)
                if v == root or not reachable[v]:
                    continue
                p = int(par[v])
                if p == _NO_PRED:
                    continue
                depth[v] = depth[p] + 1
                eid = self._pair_edge[(min(v, p), max(v, p))]
                self.parent_eid[zi, v] = eid
                self.parent_ep[zi, v] = ep_of_edge[eid]
            max_d = int(depth.max())
            lv = [
                np.nonzero(depth == d)[0] for d in range(1, max_d + 1)
            ] if max_d >= 1 else []
            self.levels.append(lv)

        # Flattened cross-tree level schedule: one numpy gather/xor per
        # depth covers that depth in *every* tree at once.  This is still
        # Algorithm 3's level-order second pass, executed for all |Z|
        # trees simultaneously (what the CUDA grid does spatially).
        self._flat_parent_ep = self.parent_ep.reshape(-1)
        max_depth = int(self.depth.max()) if self.depth.size else 0
        self._flat_levels: list[tuple[np.ndarray, np.ndarray]] = []
        flat_parent = np.where(
            self.parent == _NO_PRED, 0, self.parent
        ) + (np.arange(k)[:, None] * n)
        for d in range(1, max_depth + 1):
            sel = np.nonzero(self.depth.reshape(-1) == d)[0]
            if sel.size:
                self._flat_levels.append((sel, flat_parent.reshape(-1)[sel]))

    def _build_candidates(self, lca_filter: bool) -> None:
        """Candidate family A, weight-sorted into the hybrid store."""
        g = self.graph
        cz: list[int] = []
        ce: list[int] = []
        cu: list[int] = []
        cv: list[int] = []
        cw: list[float] = []
        pw = self._pg.edge_w
        loops = np.nonzero(g.edge_u == g.edge_v)[0]
        for e in loops:
            cz.append(-1)
            ce.append(int(e))
            cu.append(int(g.edge_u[e]))
            cv.append(int(g.edge_u[e]))
            cw.append(float(pw[e]))
        for zi in range(len(self.fvs)):
            dist = self.dist[zi]
            depth = self.depth[zi]
            par = self.parent[zi]
            for e in range(g.m):
                u, v = int(g.edge_u[e]), int(g.edge_v[e])
                if u == v:
                    continue
                if not (np.isfinite(dist[u]) and np.isfinite(dist[v])):
                    continue
                if self.parent_eid[zi, u] == e or self.parent_eid[zi, v] == e:
                    continue  # tree arc of T_z: not a candidate chord
                if lca_filter and self._lca(par, depth, u, v) != int(self.fvs[zi]):
                    continue
                cz.append(zi)
                ce.append(e)
                cu.append(u)
                cv.append(v)
                cw.append(float(dist[u] + pw[e] + dist[v]))
        self.cand_z = np.asarray(cz, dtype=np.int64)
        self.cand_e = np.asarray(ce, dtype=np.int64)
        self.cand_u = np.asarray(cu, dtype=np.int64)
        self.cand_v = np.asarray(cv, dtype=np.int64)
        self.cand_w = np.asarray(cw, dtype=np.float64)
        self.cand_ep = self.ss.eprime_index[self.cand_e]
        self.order = np.argsort(self.cand_w, kind="stable")

    @staticmethod
    def _lca(par: np.ndarray, depth: np.ndarray, u: int, v: int) -> int:
        a, b = u, v
        da, db = int(depth[a]), int(depth[b])
        while da > db:
            a = int(par[a])
            da -= 1
        while db > da:
            b = int(par[b])
            db -= 1
        while a != b:
            a = int(par[a])
            b = int(par[b])
        return a

    # ------------------------------------------------------------------ #
    # Per-phase work units
    # ------------------------------------------------------------------ #

    def witness_edge_bits(self, s_packed: np.ndarray) -> np.ndarray:
        """Expand a packed witness into per-E'-index bits, padded so that
        index ``-1`` (tree edges of G, always orthogonal) reads as 0."""
        bits = gf2.unpack(s_packed, self.f).astype(np.uint8)
        return np.concatenate([bits, np.zeros(1, dtype=np.uint8)])

    def labels_for_tree(self, zi: int, s_pad: np.ndarray) -> np.ndarray:
        """Algorithm 3 for one tree ``T_z``: the two passes over ``T_z``.

        Pass 1 gathers the witness bit of each parent edge (``c_z``);
        pass 2 is a level-order prefix-xor producing ``l_z``.
        One call = one work unit of the heterogeneous label stage.
        """
        c = s_pad[self.parent_ep[zi]]
        labels = np.zeros(self.n, dtype=np.uint8)
        par = self.parent[zi]
        for level in self.levels[zi]:
            labels[level] = labels[par[level]] ^ c[level]
        return labels

    def compute_labels(self, s_pad: np.ndarray) -> np.ndarray:
        """Labels for all trees: ``(|Z|, n)`` uint8 matrix.

        Runs the flattened cross-tree level schedule (one vectorized
        gather/xor per depth); :meth:`labels_for_tree` is the per-tree
        reference it must match.
        """
        k = len(self.fvs)
        if k == 0:
            return np.zeros((0, self.n), dtype=np.uint8)
        c = s_pad[self._flat_parent_ep]
        labels = np.zeros(k * self.n, dtype=np.uint8)
        for sel, par in self._flat_levels:
            labels[sel] = labels[par] ^ c[sel]
        return labels.reshape(k, self.n)

    def scan_predicate(self, labels: np.ndarray, s_pad: np.ndarray):
        """Vectorized O(1)-per-candidate orthogonality test over a batch."""

        def predicate(ids: np.ndarray) -> np.ndarray:
            z = self.cand_z[ids]
            se = s_pad[self.cand_ep[ids]]
            tree = z >= 0
            parity = se.copy()
            if tree.any():
                zt = z[tree]
                parity[tree] ^= (
                    labels[zt, self.cand_u[ids][tree]]
                    ^ labels[zt, self.cand_v[ids][tree]]
                )
            return parity == 1

        return predicate

    def reconstruct(self, cand_id: int) -> tuple[Cycle, np.ndarray]:
        """Selected candidate → (cycle with true weight, packed E' vector)."""
        e = int(self.cand_e[cand_id])
        zi = int(self.cand_z[cand_id])
        if zi < 0:
            support = np.asarray([e], dtype=np.int64)
        else:
            par = self.parent[zi]
            root = int(self.fvs[zi])
            walk = [e]
            for x in (int(self.cand_u[cand_id]), int(self.cand_v[cand_id])):
                cur = x
                while cur != root:
                    p = int(par[cur])
                    walk.append(self.parent_eid[zi, cur])
                    cur = p
            support = np.asarray(walk, dtype=np.int64)
        cyc = Cycle.from_multiset(
            self.graph, support, weight=None, z=int(self.fvs[zi]) if zi >= 0 else -1, e=e
        )
        return cyc, self.ss.restricted_vector(support)

    def update_witnesses(self, witnesses: np.ndarray, i: int, c_vec: np.ndarray) -> int:
        """Steps 4–6 of Algorithm 2 on rows ``i+1 .. f-1``.

        Returns the number of witnesses flipped.
        """
        rest = witnesses[i + 1 :]
        if rest.size == 0:
            return 0
        _C_ORTHO.inc(len(rest))
        odd = gf2.pivot_update(rest, c_vec, witnesses[i])
        flipped = int(odd.sum())
        _C_XORS.inc(flipped)
        return flipped

    def new_store(self) -> CandidateStore:
        """Fresh weight-ordered candidate store for one run."""
        return CandidateStore(self.order, block_size=self.block_size)


def mm_mcb(
    g: CSRGraph,
    lca_filter: bool = True,
    perturb: bool = True,
    block_size: int = 512,
    report: MMReport | None = None,
) -> list[Cycle]:
    """Sequential driver for the Mehlhorn–Michail pipeline."""
    ctx = MMContext(g, lca_filter=lca_filter, perturb=perturb, block_size=block_size)
    if ctx.f == 0:
        return []
    store = ctx.new_store()
    witnesses = gf2.identity(ctx.f)
    if report is not None:
        report.n, report.m, report.f = g.n, g.m, ctx.f
        report.n_fvs = len(ctx.fvs)
        report.n_candidates = len(ctx.cand_e)
        report.witness_bytes = int(witnesses.nbytes)
        report.store_bytes = store.memory_bytes()
    stats = store.stats

    cycles: list[Cycle] = []
    for i in range(ctx.f):
        _C_PHASES.inc()
        with _span("mm.labels", cat="mcb", phase=i):
            s_pad = ctx.witness_edge_bits(witnesses[i])
            labels = ctx.compute_labels(s_pad)
        tested = stats.candidates_tested
        with _span("mm.scan", cat="mcb", phase=i):
            cand = store.scan_and_remove(ctx.scan_predicate(labels, s_pad))
        if report is not None:
            report.tested.append(stats.candidates_tested - tested)
        if cand is None:
            raise RuntimeError(
                "candidate family does not span the cycle space "
                "(disable lca_filter or report a bug)"
            )
        with _span("mm.reconstruct", cat="mcb", phase=i):
            cyc, c_vec = ctx.reconstruct(cand)
        assert gf2.dot(c_vec, witnesses[i]) == 1
        cycles.append(cyc)
        with _span("mm.update", cat="mcb", phase=i):
            ctx.update_witnesses(witnesses, i, c_vec)
    return cycles
