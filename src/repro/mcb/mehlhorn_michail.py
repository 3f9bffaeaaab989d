"""Mehlhorn–Michail MCB: FVS-rooted candidates + label-propagated scans.

This is the paper's *processing phase* (Section 3.3.2) in full:

* shortest-path trees ``T_z`` from every vertex of a feedback vertex set;
* the candidate family ``A = {C_ze}`` (optionally restricted to pairs with
  ``lca_{T_z}(u, v) = z`` — the Mehlhorn–Michail reduction — in which case
  every candidate is a simple cycle), sorted by weight once, so that a
  candidate's id is its weight rank in the :class:`CandidateStore`;
* per phase, **Algorithm 3**: labels ``l_z(u) = ⟨path_z(u), S⟩`` computed
  by two tree passes (a gather of witness bits onto parent edges, then a
  level-order prefix-xor), making each candidate's orthogonality test O(1):
  ``⟨C_ze, S⟩ = l_z(u) ⊕ l_z(v) ⊕ S(e)``;
* windowed scanning of the store for the first (lightest) odd candidate;
* the vectorized witness update (independence test).

Set-up is whole-array numpy: the trees' depth, ``top_z`` and level
schedule fill one depth level at a time across all trees, and one boolean
mask over (tree, edge) selects the candidates (the LCA filter is
``top_z(u) != top_z(v)``, where ``top_z(x)`` is the child of ``z`` above
``x``).  :class:`MMContext` exposes the per-phase steps — labels for all
trees at once, one store scan, one witness update; the heterogeneous
trace (:mod:`repro.hetero.mcb_runner`) sizes its per-tree label units and
per-phase scan and update units from the counts :class:`MMReport` records.

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

    The per-phase operations (labels, one store scan, reconstruction, the
    witness update) are methods, so the caller drives the phase loop.
    The ``cand_*`` arrays are in weight order: a candidate's id is its
    rank.
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
        self.n = g.n
        self.block_size = block_size
        if self.f == 0:  # acyclic: no roots, no candidates, an empty store
            self.fvs = empty = np.empty(0, dtype=np.int64)
            self.cand_w = np.empty(0)
            self.cand_z = self.cand_e = self.cand_u = self.cand_v = empty
            self.cand_ep = self._lab_u = self._lab_v = empty
            return
        self.fvs = greedy_fvs(g)
        pw = perturbed_weights(g) if perturb else g.edge_w

        # Shortest-path trees from every FVS root (compiled bulk call).
        # Perturbed weights make each tree the unique SPT, which the
        # lca-filtered candidate theorem of [29] requires.
        self.dist, self.parent = spt_forest(g.with_weights(pw), self.fvs)

        top = self._build_tree_tables(pw)
        self._build_candidates(top, pw, lca_filter)

    # ------------------------------------------------------------------ #
    # Setup
    # ------------------------------------------------------------------ #

    def _build_tree_tables(self, pw: np.ndarray) -> np.ndarray:
        """Depths, level schedule and parent-edge E' indices of every tree.

        Fills one depth level at a time over the flattened ``(|Z|·n)``
        parent array and returns ``top``: per (tree, vertex) the flat index
        of the root's child above it (the root is its own top).
        """
        g = self.graph
        k, n = self.parent.shape
        par = self.parent.reshape(-1)
        arcs = np.nonzero(par != _NO_PRED)[0]  # flat (tree, vertex) with a parent
        depth = np.full(k * n, -1, dtype=np.int64)
        top = depth.copy()
        roots = np.arange(k) * n + self.fvs
        depth[roots] = 0
        top[roots] = roots

        # Flattened cross-tree level schedule: one numpy gather/xor per
        # depth covers that depth in *every* tree at once.  This is still
        # Algorithm 3's level-order second pass, executed for all |Z|
        # trees simultaneously (what the CUDA grid does spatially).
        self._flat_levels: list[tuple[np.ndarray, np.ndarray]] = []
        child, child_up = arcs, par[arcs] + arcs // n * n  # unplaced, their flat parents
        while child.size:
            d = len(self._flat_levels) + 1
            now = depth[child_up] == d - 1
            sel, sel_up = child[now], child_up[now]
            depth[sel] = d
            top[sel] = sel if d == 1 else top[sel_up]
            self._flat_levels.append((sel, sel_up))
            child, child_up = child[~now], child_up[~now]

        # Tree arc → edge id: each vertex pair's lightest edge, i.e. its
        # first in ``np.argsort(pw)`` order (perturbation makes it unique).
        lo, hi = np.minimum(g.edge_u, g.edge_v), np.maximum(g.edge_u, g.edge_v)
        by_w = np.argsort(pw)
        by_w = by_w[lo[by_w] != hi[by_w]]
        pair_keys, first = np.unique(lo[by_w] * n + hi[by_w], return_index=True)
        v, p = arcs % n, par[arcs]
        key = np.minimum(v, p) * n + np.maximum(v, p)
        eid = by_w[first][np.searchsorted(pair_keys, key)]
        parent_eid = np.full(k * n, -1, dtype=np.int64)
        parent_eid[arcs] = eid
        self._flat_parent_ep = np.full(k * n, -1, dtype=np.int64)
        self._flat_parent_ep[arcs] = self.ss.eprime_index[eid]
        self.depth, self.parent_eid = depth.reshape(k, n), parent_eid.reshape(k, n)
        self.parent_ep = self._flat_parent_ep.reshape(k, n)
        return top.reshape(k, n)

    def _build_candidates(self, top: np.ndarray, pw: np.ndarray, lca_filter: bool) -> None:
        """Candidate family A, in weight order.

        One boolean mask over (tree, non-loop edge) keeps ``C_ze`` when both
        ends are reachable, ``e`` is no tree arc of ``T_z`` and, with the
        filter, ``lca_z(u, v) = z`` — i.e. ``top_z(u) != top_z(v)``.
        Self-loops come first, then tree by tree in edge-id order; a
        stable argsort on weight then fixes each candidate's rank.
        """
        g = self.graph
        k, n = self.dist.shape
        loop = g.edge_u == g.edge_v
        loops, chords = np.nonzero(loop)[0], np.nonzero(~loop)[0]
        u, v = g.edge_u[chords], g.edge_v[chords]
        reach = np.isfinite(self.dist)
        keep = reach[:, u] & reach[:, v]
        keep &= (self.parent_eid[:, u] != chords) & (self.parent_eid[:, v] != chords)
        if lca_filter:
            keep &= top[:, u] != top[:, v]
        zi, j = np.nonzero(keep)
        e = chords[j]
        w = (self.dist[zi, u[j]] + pw[e]) + self.dist[zi, v[j]]

        self.cand_w = np.concatenate([pw[loops], w])
        rank = np.argsort(self.cand_w, kind="stable")
        self.cand_w = self.cand_w[rank]
        self.cand_z = np.concatenate([np.full(loops.size, -1, dtype=np.int64), zi])[rank]
        self.cand_e = np.concatenate([loops, e])[rank]
        self.cand_u, self.cand_v = g.edge_u[self.cand_e], g.edge_v[self.cand_e]
        self.cand_ep = self.ss.eprime_index[self.cand_e]
        # Flat label indices ``z·n + u`` per candidate; self-loops read the
        # zero pad slot ``k·n`` that :meth:`scan_predicate` appends.
        loop_cand = self.cand_z < 0
        self._lab_u = np.where(loop_cand, k * n, self.cand_z * n + self.cand_u)
        self._lab_v = np.where(loop_cand, k * n, self.cand_z * n + self.cand_v)

    # ------------------------------------------------------------------ #
    # Per-phase work units
    # ------------------------------------------------------------------ #

    def witness_edge_bits(self, s_packed: np.ndarray) -> np.ndarray:
        """Expand a packed witness into per-E'-index bits, padded so that
        index ``-1`` (tree edges of G, always orthogonal) reads as 0."""
        bits = gf2.unpack(s_packed, self.f).astype(np.uint8)
        return np.concatenate([bits, np.zeros(1, dtype=np.uint8)])

    def compute_labels(self, s_pad: np.ndarray) -> np.ndarray:
        """Algorithm 3 for all trees at once: ``(|Z|, n)`` uint8 labels.

        Pass 1 gathers the witness bit of each parent edge (``c_z``);
        pass 2 is the level-order prefix-xor producing ``l_z``, one
        vectorized gather/xor per depth across every tree.
        """
        c = s_pad[self._flat_parent_ep]
        labels = np.zeros(c.size, dtype=np.uint8)
        for sel, par in self._flat_levels:
            labels[sel] = labels[par] ^ c[sel]
        return labels.reshape(len(self.fvs), self.n)

    def scan_predicate(self, labels: np.ndarray, s_pad: np.ndarray):
        """Vectorized O(1)-per-candidate orthogonality test over a window
        of ranks: ``S(e) ⊕ l_z(u) ⊕ l_z(v)`` through flat label indices,
        read as views of the weight-ordered arrays."""
        lab = np.zeros(labels.size + 1, dtype=np.uint8)
        lab[:-1] = labels.reshape(-1)
        ep, iu, iv = self.cand_ep, self._lab_u, self._lab_v

        def predicate(win: slice) -> np.ndarray:
            return (s_pad[ep[win]] ^ lab[iu[win]] ^ lab[iv[win]]) == 1

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
        """Fresh store holding every candidate rank, for one run."""
        return CandidateStore(len(self.cand_e), block_size=self.block_size)


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
