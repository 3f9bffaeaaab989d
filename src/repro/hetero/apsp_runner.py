"""Heterogeneous APSP driver (Algorithm 1 on the CPU+GPU platform).

Phase II's work units are one Dijkstra source each ("if the graph is
already biconnected ... the workunits can correspond to the processing
required with respect to a vertex", Section 2.3); for general graphs the
units are whole biconnected components sorted by size.  Phase III's
anchor-formula sweep is perfectly divisible (pure broadcast arithmetic).

Like the MCB runner, the computation executes once for real and its trace
replays on every platform through :func:`~repro.hetero.trace.simulate_trace`.
"""

from __future__ import annotations

import numpy as np

from ..apsp.composition import assemble_full_matrix, build_component_tables
from ..apsp.ear_apsp import EarAPSPReport, ear_apsp_full
from ..decomposition.biconnected import biconnected_components
from ..graph.csr import CSRGraph
from ..obs import metrics as _metrics
from ..obs.memory import publish_apsp_table_gauges
from ..obs.trace import phase
from ..sssp.engine import multi_source, resolve_chunk_size
from .trace import WorkTrace

__all__ = ["apsp_with_trace"]

BYTES_DIJKSTRA_PER_EDGE = 40.0
BYTES_POSTPROCESS_PER_ENTRY = 24.0
BYTES_REDUCE_PER_EDGE = 24.0


def _record_dijkstra(trace: WorkTrace, n: int, m: int, chunk: int) -> None:
    """One trace unit per batched dispatch of ``chunk`` Dijkstra sources.

    Batching amortises the per-call dispatch cost, so a chunk — not a
    single source — is the atomic grab on a device queue.  Each unit is
    still marked divisible: the sources inside a chunk are independent,
    so a device with internal lanes (the GPU model) can split it.
    """
    stage = trace.new_stage("dijkstra", divisible=True)
    for lo in range(0, n, chunk):
        k = min(chunk, n - lo)
        stage.add(k * max(m, 1) * BYTES_DIJKSTRA_PER_EDGE, k * n)


def apsp_with_trace(g: CSRGraph, use_ear: bool = True) -> tuple[np.ndarray, WorkTrace]:
    """Full APSP matrix plus the recorded heterogeneous work trace.

    Runs the public per-BCC pipeline — :func:`build_component_tables`
    with :func:`ear_apsp_full` per component (or plain multi-source
    Dijkstra when ``use_ear`` is False), then
    :func:`assemble_full_matrix` — and sizes each trace stage from the
    counts the calls report.  The Section 2.4 phases are
    ``obs.trace.phase`` spans: ``ear_apsp_full`` emits reduce / dijkstra /
    extend, this driver only the calls it makes itself (decompose,
    assemble, and the Dijkstra of the ``use_ear=False`` path).  Sources
    go to Dijkstra in chunks of ``REPRO_SSSP_CHUNK`` (see
    :func:`~repro.sssp.engine.resolve_chunk_size`).
    """
    chunk = resolve_chunk_size()
    trace = WorkTrace()
    with phase("preprocess", "apsp", stage="decompose", n=g.n, m=g.m):
        bcc = biconnected_components(g)
    trace.new_stage("decompose").add(g.m * BYTES_REDUCE_PER_EDGE, g.m)

    # Measured Table 1: the reduced per-component solve matrices actually
    # allocated this run (Σ nᵢʳ² entries at 8 B, plus three anchor scalars
    # per removed vertex), vs the per-BCC tables and the dense n² matrix
    # published below.
    reduced_bytes = 0

    def traced_solver(sub: CSRGraph) -> np.ndarray:
        nonlocal reduced_bytes
        if not use_ear:
            _record_dijkstra(trace, sub.n, sub.m, chunk)
            with phase("process", "apsp", stage="dijkstra", n=sub.n):
                out = multi_source(sub, np.arange(sub.n), chunk_size=chunk)
            reduced_bytes += int(out.nbytes)
            return out
        rep = EarAPSPReport()
        full = ear_apsp_full(sub, chunk_size=chunk, report=rep)
        trace.new_stage("reduce").add(sub.m * BYTES_REDUCE_PER_EDGE, sub.m)
        _record_dijkstra(trace, rep.n_reduced, rep.m_reduced, chunk)
        trace.new_stage("postprocess", divisible=True).add(
            sub.n * sub.n * BYTES_POSTPROCESS_PER_ENTRY, sub.n * sub.n
        )
        reduced_bytes += 8 * (rep.n_reduced * rep.n_reduced + 3 * rep.n_removed)
        return full

    ct = build_component_tables(g, solver=traced_solver, bcc=bcc)
    publish_apsp_table_gauges(ct, g.n)
    _metrics.gauge("memory.apsp.reduced_table_bytes").set(
        reduced_bytes + int(ct.ap_matrix.nbytes)
    )
    with phase("postprocess", "apsp", stage="assemble", n=g.n):
        mat = assemble_full_matrix(g, ct)
    a = len(ct.ap_ids)
    if a:
        trace.new_stage("ap_table", divisible=True).add(
            max(a * a, 1) * BYTES_POSTPROCESS_PER_ENTRY, a * a
        )
    return mat, trace

