#!/usr/bin/env python
"""The heterogeneous platform end to end: MCB on four implementations.

Reproduces one row of the paper's Table 2 on a synthetic graph: run the
ear-reduced Mehlhorn–Michail pipeline once (recording its kernel work
trace), then replay the trace on the Sequential / Multicore / GPU /
CPU+GPU platform models and report virtual times, per-device busy
shares, and the ear-decomposition ablation.

Run:  python examples/heterogeneous_scheduling.py
"""

from repro.graph import random_biconnected_graph, randomize_weights, subdivide_edges
from repro.hetero import Platform, run_mcb_on_platforms, simulate_trace
from repro.mcb import verify_cycle_basis


def main() -> None:
    core = random_biconnected_graph(600, 420, seed=5)
    g = subdivide_edges(randomize_weights(core, seed=5), 0.6, seed=5, chain_length=(2, 4))
    print(f"graph: {g.n} vertices, {g.m} edges, "
          f"cycle-space dimension {g.cycle_space_dimension()}")

    res_ear = run_mcb_on_platforms(g, use_ear=True)
    res_raw = run_mcb_on_platforms(g, use_ear=False)
    assert verify_cycle_basis(g, res_ear.cycles).ok

    print(f"\nMCB: {len(res_ear.cycles)} cycles, weight {res_ear.total_weight:.2f}")
    print(f"\n{'implementation':12s} {'w/ ear':>12s} {'w/o ear':>12s} {'ear gain':>9s}")
    for name in ("sequential", "multicore", "gpu", "cpu+gpu"):
        w = res_ear.timings[name].total_time
        wo = res_raw.timings[name].total_time
        print(f"{name:12s} {w * 1e3:10.2f}ms {wo * 1e3:10.2f}ms {wo / w:8.2f}x")

    sp = res_ear.speedups_vs_sequential()
    print("\nspeedup over sequential (with ears): "
          + ", ".join(f"{k}={v:.2f}x" for k, v in sp.items() if k != "sequential"))

    het = res_ear.timings["cpu+gpu"]
    total_busy = sum(het.device_busy.values())
    print("device share of heterogeneous busy time: "
          + ", ".join(f"{k}={v / total_busy:.0%}" for k, v in het.device_busy.items()))

    # Per-stage view on the sequential platform (the paper's Section 3.5
    # breakdown: labels dominate).
    seq = simulate_trace(res_ear.trace, Platform.sequential())
    proc = {k: v for k, v in seq.stage_times.items() if k in ("labels", "scan", "update")}
    tot = sum(proc.values())
    print("processing-time shares: "
          + ", ".join(f"{k}={v / tot:.0%}" for k, v in proc.items()))


if __name__ == "__main__":
    main()
