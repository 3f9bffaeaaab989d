"""Algorithm 1: ear-decomposition based APSP (the paper's core APSP).

Three phases (Section 2.1):

1. **Preprocess** — contract degree-2 chains: ``G → G^r``.
2. **Process** — Dijkstra from every vertex of ``G^r`` (heterogeneous in
   the paper; here either the compiled bulk engine or, under the
   heterogeneous executor, per-source work units).
3. **Post-process** — extend ``S^r`` to all of ``G`` with the closed-form
   minima over chain anchors ``left(x)/right(x)`` (Section 2.1.3), fully
   vectorized: the removed-to-removed block is four broadcast min-plus
   terms plus a per-chain along-the-chain correction.

:func:`ear_apsp_full` applies the pipeline to the *whole* graph, which is
valid for any connected or disconnected input (the anchor-exit argument
only needs chain interiors to have degree 2).  The per-biconnected-
component organisation of Section 2.2 — which is what gives the
``O(a² + Σ nᵢ²)`` memory — lives in :mod:`repro.apsp.composition` and
:mod:`repro.apsp.oracle` and reuses :func:`solve_component` below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..decomposition.reduce import ReducedGraph, reduce_graph
from ..graph.csr import CSRGraph
from ..obs.trace import phase
from ..sssp.engine import all_pairs
from .dijkstra_apsp import dijkstra_apsp

__all__ = ["EarAPSPReport", "extend_reduced_distances", "ear_apsp_full", "solve_component"]


@dataclass
class EarAPSPReport:
    """Reduction counts of one Algorithm-1 run.

    Phase times are not stored here: :func:`ear_apsp_full` emits them as
    :func:`repro.obs.trace.phase` spans.
    """

    n: int = 0
    n_reduced: int = 0
    n_removed: int = 0
    m_reduced: int = 0  # edges of the simple reduced graph Phase II solves


def extend_reduced_distances(red: ReducedGraph, s_r: np.ndarray) -> np.ndarray:
    """Phase III: lift the reduced distance matrix ``S^r`` to all of ``G``.

    Implements the Section 2.1.3 formulas:

    * kept–kept pairs copy straight from ``S^r``;
    * removed ``x`` to kept ``v``:
      ``min(dl(x) + S^r[ℓx, v], dr(x) + S^r[rx, v])``;
    * removed–removed: the four ``{ℓ,r} × {ℓ,r}`` crossing terms, then for
      pairs on the *same* chain the direct along-chain distance
      ``|prefix(x) − prefix(y)|`` is min-ed in.
    """
    g = red.original
    n = g.n
    kept = red.kept_ids
    out = np.full((n, n), np.inf, dtype=np.float64)
    if kept.size:
        out[np.ix_(kept, kept)] = s_r
    removed = np.nonzero(~red.kept_mask)[0]
    if removed.size:
        ch = red.chain_of[removed]
        left = red.chain_left_rid[ch]
        right = red.chain_right_rid[ch]
        dl = red.dist_left[removed]
        dr = red.dist_right[removed]

        # Removed -> kept (and the symmetric kept -> removed block).
        d_rk = np.minimum(dl[:, None] + s_r[left, :], dr[:, None] + s_r[right, :])
        out[np.ix_(removed, kept)] = d_rk
        out[np.ix_(kept, removed)] = d_rk.T

        # Removed -> removed: four anchor crossings.
        d_rr = dl[:, None] + s_r[np.ix_(left, left)] + dl[None, :]
        np.minimum(d_rr, dl[:, None] + s_r[np.ix_(left, right)] + dr[None, :], out=d_rr)
        np.minimum(d_rr, dr[:, None] + s_r[np.ix_(right, left)] + dl[None, :], out=d_rr)
        np.minimum(d_rr, dr[:, None] + s_r[np.ix_(right, right)] + dr[None, :], out=d_rr)

        # Same-chain pairs may be closer along the chain itself:
        # ``dist_left`` is the per-vertex chain prefix, so the along-chain
        # distance is ``|prefix(x) − prefix(y)|`` — one masked minimum over
        # the whole removed × removed block instead of a per-chain loop.
        same_chain = ch[:, None] == ch[None, :]
        direct = np.abs(dl[:, None] - dl[None, :])
        np.minimum(d_rr, direct, out=d_rr, where=same_chain)
        out[np.ix_(removed, removed)] = d_rr
    np.fill_diagonal(out, 0.0)
    return out


def ear_apsp_full(
    g: CSRGraph,
    engine: str = "scipy",
    report: EarAPSPReport | None = None,
    chunk_size: int | None = None,
    workers: int | None = None,
) -> np.ndarray:
    """Algorithm 1 on the whole graph: full exact ``n × n`` matrix.

    ``engine`` selects the Phase-II SSSP implementation: ``"scipy"``
    (cached + chunked bulk dispatch, the default), ``"python"`` (per-source
    heaps), or ``"parallel"`` (the process-parallel backend of
    :mod:`repro.hetero.parallel` — ``workers`` processes fan out
    ``chunk_size``-source chunks over shared-memory CSR buffers).  Pass a
    :class:`EarAPSPReport` to collect the reduction counts.  The three
    phases are timed as ``obs.phase`` spans with cat ``apsp``.
    """
    with phase("preprocess", "apsp", stage="reduce", n=g.n):
        red = reduce_graph(g)
        simple = red.simple_graph()
    with phase("process", "apsp", stage="dijkstra", n=simple.n):
        if engine == "scipy":
            s_r = all_pairs(simple, chunk_size=chunk_size)
        else:
            s_r = dijkstra_apsp(
                simple, engine=engine, chunk_size=chunk_size, workers=workers
            )
    with phase("postprocess", "apsp", stage="extend", n=g.n):
        out = extend_reduced_distances(red, s_r)
    if report is not None:
        report.n = g.n
        report.n_reduced = red.graph.n
        report.n_removed = red.n_removed
        report.m_reduced = simple.m
    return out


def solve_component(
    sub: CSRGraph,
    engine: str = "scipy",
    chunk_size: int | None = None,
    workers: int | None = None,
) -> np.ndarray:
    """Per-biconnected-component solver used by the composed pipeline.

    This is exactly :func:`ear_apsp_full` — named separately so that the
    composition layer (:mod:`repro.apsp.composition`) can swap in the
    Banerjee-style undecomposed solver for the baseline comparison.
    """
    return ear_apsp_full(sub, engine=engine, chunk_size=chunk_size, workers=workers)
