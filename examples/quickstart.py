#!/usr/bin/env python
"""Quickstart: ear reduction, reduced-graph APSP, and MCB in 50 lines.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.apsp import DistanceOracle, ear_apsp_full
from repro.decomposition import reduce_graph
from repro.graph import random_biconnected_graph, randomize_weights, subdivide_edges
from repro.mcb import minimum_cycle_basis, verify_cycle_basis


def main() -> None:
    # A weighted biconnected graph with long degree-2 chains — the shape
    # the paper's technique is built for.
    core = random_biconnected_graph(40, 25, seed=7)
    g = subdivide_edges(randomize_weights(core, seed=7), 0.6, seed=7, chain_length=(2, 4))
    print(f"graph: {g.n} vertices, {g.m} edges, "
          f"{int((g.degree == 2).sum())} of degree 2")

    # 1. Degree-2 chain contraction -> the reduced graph G^r (the graph
    #    the paper's ear decomposition yields, Section 2.1.1).
    red = reduce_graph(g)
    print(f"reduced graph: {g.n} -> {red.graph.n} vertices "
          f"({red.removal_fraction:.0%} removed)")

    # 2. All-pairs shortest paths via Algorithm 1 (reduce / Dijkstra on
    #    G^r / closed-form extension) — exact.
    dist = ear_apsp_full(g)
    print(f"APSP: diameter = {dist[np.isfinite(dist)].max():.3f}")

    # 3. Space-efficient oracle: per-component tables + AP table only.
    oracle = DistanceOracle(g)
    u, v = 0, g.n - 1
    assert abs(oracle.query(u, v) - dist[u, v]) < 1e-9
    print(f"oracle: d({u}, {v}) = {oracle.query(u, v):.3f} using "
          f"{oracle.memory_bytes() / 1024:.1f} KiB "
          f"(dense table would be {oracle.full_matrix_bytes() / 1024:.1f} KiB)")

    # 4. Minimum cycle basis through the same reduction (Lemma 3.1).
    basis = minimum_cycle_basis(g)
    report = verify_cycle_basis(g, basis)
    assert report.ok
    print(f"MCB: {report.dimension} cycles, total weight {report.total_weight:.3f} "
          f"(verified independent)")


if __name__ == "__main__":
    main()
