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
