"""Algorithm 1: ear-decomposition based APSP (the paper's core APSP).

Three phases (Section 2.1):

1. **Preprocess** — contract degree-2 chains: ``G → G^r``.
2. **Process** — Dijkstra from every vertex of ``G^r`` (heterogeneous in
   the paper; here the compiled bulk engine, or per-source work units
   under the heterogeneous executor).
3. **Post-process** — extend ``S^r`` to all of ``G`` with the closed-form
   minima over chain anchors ``left(x)/right(x)`` (Section 2.1.3),
   vectorized per row block: the removed-to-removed entries are two
   gathers from the removed-to-kept block (equal, bit for bit, to the
   four anchor crossings) plus an along-the-chain correction applied to
   same-chain pairs only.

:func:`ear_apsp_full` applies the pipeline to the *whole* graph, which is
valid for any connected or disconnected input (the anchor-exit argument
only needs chain interiors to have degree 2).  The per-biconnected-
component organisation of Section 2.2 — which is what gives the
``O(a² + Σ nᵢ²)`` memory — lives in :mod:`repro.apsp.composition` and
:mod:`repro.apsp.oracle`, which solve each component with
:func:`ear_apsp_full` by default.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..decomposition.reduce import ReducedGraph, reduce_graph
from ..graph.csr import CSRGraph
from ..obs.trace import phase
from ..sssp.engine import all_pairs

__all__ = ["EarAPSPReport", "extend_reduced_distances", "ear_apsp_full"]


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


#: Byte budget of one row block in the post-processing kernels
#: (:func:`extend_reduced_distances` and
#: :func:`~repro.apsp.composition.assemble_full_matrix`).  Each kernel
#: builds a block of output rows in buffers of this size, which stay in a
#: core's L2 cache, and writes every row of the ``n × n`` output once.
ROW_BLOCK_BYTES = 1 << 17


def block_rows(n: int) -> int:
    """Rows of ``n`` float64 entries that fit in :data:`ROW_BLOCK_BYTES`
    (at least one, at most ``n``)."""
    return max(1, min(n, ROW_BLOCK_BYTES // (8 * max(n, 1))))


def extend_reduced_distances(red: ReducedGraph, s_r: np.ndarray) -> np.ndarray:
    """Phase III: lift the reduced distance matrix ``S^r`` to all of ``G``.

    Implements the Section 2.1.3 formulas:

    * kept–kept pairs copy straight from ``S^r``;
    * removed ``x`` to kept ``v``:
      ``d_rk[x, v] = min(dl(x) + S^r[ℓx, v], dr(x) + S^r[rx, v])``, and
      kept ``v`` to removed ``x`` is the same entry;
    * removed–removed: ``min(d_rk[x, ℓy] + dl(y), d_rk[x, ry] + dr(y))``,
      then for pairs on the *same* chain the direct along-chain distance
      ``|dl(x) − dl(y)|`` is min-ed in.

    The removed–removed form equals the paper's four ``{ℓ,r} × {ℓ,r}``
    anchor crossings bit for bit: round-to-nearest is monotone
    (``a ≤ b ⇒ fl(a + c) ≤ fl(b + c)``), so
    ``fl(min(a, b) + c) == min(fl(a + c), fl(b + c))``.

    The output is built in row blocks of :data:`ROW_BLOCK_BYTES`: each
    block is assembled with kept columns first and removed columns after,
    then gathered into its rows of the output in vertex order.
    """
    g = red.original
    n = g.n
    kept_mask = red.kept_mask
    k = red.kept_ids.size
    removed = np.flatnonzero(~kept_mask)
    r = removed.size
    ch = red.chain_of[removed]
    left = red.chain_left_rid[ch]
    right = red.chain_right_rid[ch]
    dl = red.dist_left[removed]
    dr = red.dist_right[removed]
    # Removed -> kept; row p is removed[p], column j is kept_ids[j].
    d_rk = np.minimum(dl[:, None] + s_r[left, :], dr[:, None] + s_r[right, :])

    # Same-chain pairs: ``members`` lists removed positions chain by chain,
    # so removed row p's chain-mates are ``row_size[p]`` consecutive
    # entries of it.  Row p's pairs fill slots ``ptr[p]:ptr[p + 1]`` of a
    # block's pair list, and slot s of row p reads ``members[s + shift[p]]``.
    size = np.bincount(ch, minlength=red.chain_left_rid.size)
    members = np.argsort(ch, kind="stable")
    row_size = size[ch]
    ptr = np.zeros(r + 1, dtype=np.int64)
    np.cumsum(row_size, out=ptr[1:])
    shift = (np.cumsum(size) - size)[ch] - ptr[:-1]

    # Column j of a block lives at block column ``col_src[j]``.
    col_src = np.empty(n, dtype=np.intp)
    col_src[red.kept_ids] = np.arange(k)
    col_src[removed] = k + np.arange(r)
    kept_before = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(kept_mask, out=kept_before[1:])

    out = np.empty((n, n), dtype=np.float64)
    b = block_rows(n)
    block = np.empty((b, n), dtype=np.float64)
    via_left = np.empty((b, r), dtype=np.float64)
    via_right = np.empty((b, r), dtype=np.float64)
    for i0 in range(0, n, b):
        i1 = min(i0 + b, n)
        blk = block[: i1 - i0]
        # Rows i0:i1 hold kept vertices a0:a1 and removed vertices p0:p1.
        a0, a1 = int(kept_before[i0]), int(kept_before[i1])
        p0, p1 = i0 - a0, i1 - a1
        if a1 > a0:
            rows = red.kept_ids[a0:a1] - i0
            blk[rows, :k] = s_r[a0:a1]
            blk[rows, k:] = d_rk[:, a0:a1].T
        if p1 > p0:
            # Every index is in range, so ``clip`` never clips; unlike the
            # default ``raise`` it lets ``take`` write straight into ``out``.
            rk = d_rk[p0:p1]
            rr = via_left[: p1 - p0]
            np.take(rk, left, axis=1, out=rr, mode="clip")
            rr += dl
            alt = via_right[: p1 - p0]
            np.take(rk, right, axis=1, out=alt, mode="clip")
            alt += dr
            np.minimum(rr, alt, out=rr)
            # Same-chain pairs may be closer along the chain itself.
            xs = np.repeat(np.arange(p0, p1), row_size[p0:p1])
            ys = members[np.arange(ptr[p0], ptr[p1]) + shift[xs]]
            flat = (xs - p0) * r + ys
            pair = rr.reshape(-1)[flat]
            np.minimum(pair, np.abs(dl[xs] - dl[ys]), out=pair)
            rr.reshape(-1)[flat] = pair
            rows = removed[p0:p1] - i0
            blk[rows, :k] = rk
            blk[rows, k:] = rr
        blk[np.arange(i1 - i0), col_src[i0:i1]] = 0.0
        np.take(blk, col_src, axis=1, out=out[i0:i1], mode="clip")
    return out


def ear_apsp_full(g: CSRGraph, report: EarAPSPReport | None = None) -> np.ndarray:
    """Algorithm 1 on the whole graph: full exact ``n × n`` matrix.

    Phase II runs the cached bulk engine
    (:func:`repro.sssp.engine.all_pairs`, one compiled call over every
    reduced vertex).  Pass a :class:`EarAPSPReport` to collect the
    reduction counts.  The three phases are timed as ``obs.trace.phase``
    spans with cat ``apsp``.
    """
    with phase("preprocess", "apsp", stage="reduce", n=g.n):
        red = reduce_graph(g)
        simple = red.simple_graph()
    with phase("process", "apsp", stage="dijkstra", n=simple.n):
        s_r = all_pairs(simple)
    with phase("postprocess", "apsp", stage="extend", n=g.n):
        out = extend_reduced_distances(red, s_r)
    if report is not None:
        report.n = g.n
        report.n_reduced = red.graph.n
        report.n_removed = red.n_removed
        report.m_reduced = simple.m
    return out
