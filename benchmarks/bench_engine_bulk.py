"""Bulk-SSSP engine — adjacency cache micro-benchmark.

The workload the engine optimises: many SSSPs against the same frozen
graph.  Rebuilding the scipy adjacency per source (the pre-cache
behaviour) is measured against one cached ``multi_source`` call, which
must be bit-identical and at least 2x faster.
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
    print(f"\nrepeated-sssp: rebuild-per-source / one cached call = {ratio:.1f}x")
    assert ratio >= 2.0
    benchmark.extra_info["cached_speedup"] = round(ratio, 2)
