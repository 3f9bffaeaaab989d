"""Shared helper functions for the test suite (importable)."""

from __future__ import annotations

import numpy as np

from repro.decomposition import biconnected_components
from repro.graph import (
    CSRGraph,
    attach_blocks,
    gnm_random_graph,
    randomize_weights,
    random_biconnected_graph,
    subdivide_edges,
)


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

    Recorded from the test side only: :meth:`install` wraps
    ``DequeWorkQueue.take`` (which end, how many units, how many are left)
    and the step ``executor.race`` hands each batch to (which device took
    it); both race callers, ``simulate_trace`` and ``run_stage``, go through
    the wrapper.  A reference queue can call :meth:`add` directly.
    """

    def __init__(self) -> None:
        self.grabs: list[tuple] = []

    def add(self, end: str, batch: int, device: str, remaining: int) -> None:
        self.grabs.append((end, batch, device, remaining))

    def install(self, monkeypatch) -> "GrabRecorder":
        from repro.hetero import executor, trace
        from repro.hetero.workqueue import DequeWorkQueue

        take, race = DequeWorkQueue.take, executor.race
        taken: list[tuple] = []

        def recorded_take(queue, batch_size, from_back):
            out = take(queue, batch_size, from_back)
            taken.append(("back" if from_back else "front", len(out), len(queue)))
            return out

        def recorded_race(devices, queue, step):
            def recorded_step(dev, batch):
                end, n, remaining = taken.pop()
                self.add(end, n, dev.name, remaining)
                step(dev, batch)

            return race(devices, queue, recorded_step)

        monkeypatch.setattr(DequeWorkQueue, "take", recorded_take)
        monkeypatch.setattr(executor, "race", recorded_race)
        monkeypatch.setattr(trace, "race", recorded_race)
        return self
