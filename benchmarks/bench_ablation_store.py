"""Ablation — the candidate store of Section 3.3.2.

The paper motivates the block/array hybrid ("linked-lists are lacking in
efficiency due to higher penalty in access times"): this ablation sweeps
the block size and measures the scan wall time of a full MCB run, plus
the store's own counters (batches visited, candidates tested).
"""

import time

import pytest

from repro import datasets, obs
from repro.bench import format_table
from repro.mcb import MMReport, mm_mcb
from repro.decomposition import biconnected_components, reduce_graph


@pytest.fixture(scope="module")
def reduced(scale):
    g = datasets.load("c-50", scale)
    bcc = biconnected_components(g)
    cid = max(range(bcc.count), key=lambda c: bcc.component_edges[c].size)
    sub, _ = bcc.component_subgraph(g, cid)
    return reduce_graph(sub).graph


def test_block_size_sweep(benchmark, reduced):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = []
    weights = []
    for block in (16, 128, 512, 4096):
        rep = MMReport()
        t0 = time.perf_counter()
        with obs.tracing() as tr:
            cycles = mm_mcb(reduced, block_size=block, report=rep)
        wall = time.perf_counter() - t0
        weights.append(sum(c.weight for c in cycles))
        rows.append((block, wall, tr.total_ns("mm.scan") / 1e9, rep.n_candidates))
    print()
    print(
        format_table(
            ["block size", "total wall (s)", "scan wall (s)", "#candidates"],
            rows,
            title="Candidate store block-size sweep",
        )
    )
    # correctness is block-size independent
    assert max(weights) - min(weights) < 1e-6 * max(weights)
    benchmark.extra_info["sweep"] = [
        {"block": b, "wall": round(w, 4)} for b, w, _, _ in rows
    ]


def test_store_counters(benchmark, reduced):
    """One phase-by-phase run exposing the batch and test counts."""
    from repro.mcb.mehlhorn_michail import MMContext
    from repro.mcb import gf2
    import numpy as np

    def run():
        ctx = MMContext(reduced, block_size=128)
        store = ctx.new_store()
        witnesses = np.zeros((ctx.f, gf2.n_words(ctx.f)), dtype=np.uint64)
        for i in range(ctx.f):
            witnesses[i] = gf2.unit(ctx.f, i)
        for i in range(ctx.f):
            s_pad = ctx.witness_edge_bits(witnesses[i])
            labels = ctx.compute_labels(s_pad)
            cand = store.scan_and_remove(ctx.scan_predicate(labels, s_pad))
            assert cand is not None
            _, c_vec = ctx.reconstruct(cand)
            ctx.update_witnesses(witnesses, i, c_vec)
        return store.stats

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        f"\nbatches visited={stats.batches_visited} "
        f"candidates tested={stats.candidates_tested}"
    )
    assert stats.batches_visited > 0
    # early exit pays off: far fewer candidate tests than phases x store
    assert stats.candidates_tested > 0
