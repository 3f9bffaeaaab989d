"""Bulk-SSSP engine — adjacency cache + chunked dispatch micro-benchmarks.

The workload the engine optimises: many SSSPs against the same frozen
graph (per-BCC APSP, oracle construction, MCB restarts).  Two shapes are
measured and checked:

* rebuilding the scipy adjacency per source (the pre-cache behaviour) vs
  one cached, chunked ``multi_source`` call — must be >= 2x;
* chunk-size sweep — all chunkings bit-identical, timings reported.
"""

import numpy as np
import pytest

from repro import datasets
from repro.sssp import engine


@pytest.fixture(scope="module")
def graph(scale):
    return datasets.load("as-22july06", scale)


def test_cache_vs_rebuild(benchmark, graph):
    import time

    sources = np.arange(min(graph.n, 256), dtype=np.int64)
    engine.adjacency_cache().clear()
    t0 = time.perf_counter()
    for s in sources:
        engine.sssp(graph, int(s), cache=False)
    t_uncached = time.perf_counter() - t0

    t0 = time.perf_counter()
    warm = engine.multi_source(graph, sources)
    t_cached = time.perf_counter() - t0
    cold = np.vstack([engine.sssp(graph, int(s), cache=False) for s in sources])
    assert np.array_equal(warm, cold)
    benchmark.pedantic(lambda: engine.multi_source(graph, sources), rounds=1, iterations=1)
    ratio = t_uncached / t_cached if t_cached else float("inf")
    print(f"\nrepeated-sssp: rebuild-per-source / cached+chunked = {ratio:.1f}x")
    assert ratio >= 2.0
    benchmark.extra_info["cached_chunked_speedup"] = round(ratio, 2)


def test_chunk_size_sweep(benchmark, graph):
    sources = np.arange(min(graph.n, 256), dtype=np.int64)
    reference = engine.multi_source(graph, sources, chunk_size=len(sources))
    import time

    timings = {}
    for chunk in (1, 8, 32, 128):
        t0 = time.perf_counter()
        out = engine.multi_source(graph, sources, chunk_size=chunk)
        timings[chunk] = time.perf_counter() - t0
        assert np.array_equal(out, reference)
    benchmark.pedantic(
        lambda: engine.multi_source(graph, sources), rounds=3, iterations=1
    )
    print()
    for chunk, t in timings.items():
        print(f"chunk={chunk:>4}: {t:.3f}s")
    benchmark.extra_info["chunk_timings_s"] = {
        str(k): round(v, 4) for k, v in timings.items()
    }

