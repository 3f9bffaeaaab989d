#!/usr/bin/env python
"""Road-network routing: planar APSP with ear decomposition.

Road networks are near-planar and full of degree-2 vertices (shape points
along road segments) — exactly the structure Section 2 exploits.  This
example builds a synthetic road network (Delaunay "intersections" with
subdivided "road geometry"), compares three exact APSP pipelines, and
runs point-to-point queries through the space-efficient oracle.

Run:  python examples/road_network_routing.py
"""

import time

import numpy as np

from repro import obs
from repro.apsp import DistanceOracle, bcc_apsp, ear_apsp_full, partition_apsp
from repro.apsp.ear_apsp import EarAPSPReport
from repro.bench import mteps
from repro.graph import delaunay_graph, subdivide_edges


def build_road_network(n_intersections: int = 500, seed: int = 42):
    """Delaunay intersections + degree-2 shape points along segments."""
    skeleton = delaunay_graph(n_intersections, seed=seed)
    # Two thirds of road segments get 1-4 shape points each.
    return subdivide_edges(skeleton, 0.66, seed=seed, chain_length=(1, 4))


def main() -> None:
    g = build_road_network()
    deg2 = int((g.degree == 2).sum())
    print(f"road network: {g.n} nodes ({deg2} shape points), {g.m} segments")

    results = {}
    timings = {}

    rep = EarAPSPReport()
    t0 = time.perf_counter()
    with obs.tracing() as tr:
        results["ear (ours)"] = ear_apsp_full(g, report=rep)
    timings["ear (ours)"] = time.perf_counter() - t0
    # ear_apsp_full times its three phases as obs.phase spans (cat "apsp").
    phase_ms = {s.args["stage"]: s.dur_ns / 1e6 for s in tr.spans if s.cat == "apsp"}

    t0 = time.perf_counter()
    results["bcc (Banerjee)"] = bcc_apsp(g)
    timings["bcc (Banerjee)"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    results["partition (Djidjev)"] = partition_apsp(g, k=6, seed=1)
    timings["partition (Djidjev)"] = time.perf_counter() - t0

    base = results["ear (ours)"]
    for name, mat in results.items():
        agree = np.allclose(
            np.nan_to_num(mat, posinf=-1), np.nan_to_num(base, posinf=-1), atol=1e-8
        )
        print(
            f"{name:22s} {timings[name]:7.3f}s  "
            f"{mteps(g.n, g.m, timings[name]):9.1f} MTEPS  exact={agree}"
        )
    print(
        f"\near pipeline: {rep.n} -> {rep.n_reduced} routing nodes; phases "
        f"pre={phase_ms['reduce']:.1f}ms "
        f"dijkstra={phase_ms['dijkstra']:.1f}ms "
        f"extend={phase_ms['extend']:.1f}ms"
    )

    # Point-to-point queries without the dense matrix.
    oracle = DistanceOracle(g)
    rng = np.random.default_rng(0)
    queries = rng.integers(0, g.n, size=(5, 2))
    print("\nsample routes (oracle):")
    for u, v in queries:
        print(f"  d({u:4d}, {v:4d}) = {oracle.query(int(u), int(v)):8.4f}")
    from repro.apsp import memory_model

    red_model = memory_model(g, reduced=True)
    print(
        f"oracle storage: {oracle.memory_bytes() / 2**20:.2f} MB "
        f"(reduced-table variant would use {red_model.ours_mb:.2f} MB) "
        f"vs dense {oracle.full_matrix_bytes() / 2**20:.2f} MB"
    )


if __name__ == "__main__":
    main()
