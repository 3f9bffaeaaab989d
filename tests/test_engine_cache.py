"""Adjacency cache, one-call dispatch, and the engine's weight contract."""

from __future__ import annotations

import numpy as np
import pytest
from _support import chunked_multi_source, chunked_spt_forest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import CSRGraph, GraphError, gnm_random_graph, grid_graph, randomize_weights
from repro.sssp import dijkstra
from repro.sssp.engine import (
    MIN_POSITIVE_WEIGHT,
    AdjacencyCache,
    adjacency_cache,
    adjacency_matrix,
    all_pairs,
    multi_source,
    spt_forest,
    sssp,
)


@pytest.fixture(autouse=True)
def _clean_cache():
    adjacency_cache().clear()
    yield
    adjacency_cache().clear()


class TestFingerprint:
    def test_stable_and_content_keyed(self, grid):
        assert grid.fingerprint == grid.fingerprint
        clone = CSRGraph(grid.n, grid.edge_u, grid.edge_v, grid.edge_w)
        assert clone.fingerprint == grid.fingerprint

    def test_differs_across_graphs(self, grid, ring):
        assert grid.fingerprint != ring.fingerprint
        reweighted = CSRGraph(grid.n, grid.edge_u, grid.edge_v, grid.edge_w * 2.0)
        assert reweighted.fingerprint != grid.fingerprint


class TestAdjacencyCache:
    def test_hit_miss_counters(self, grid, ring):
        cache = adjacency_cache()
        assert cache.info().hits == 0 and cache.info().misses == 0
        sssp(grid, 0)
        info = cache.info()
        assert (info.hits, info.misses, info.size) == (0, 1, 1)
        sssp(grid, 3)
        sssp(grid, 7)
        info = cache.info()
        assert (info.hits, info.misses) == (2, 1)
        sssp(ring, 0)
        info = cache.info()
        assert (info.hits, info.misses, info.size) == (2, 2, 2)

    def test_cache_bypass_leaves_counters_untouched(self, grid):
        sssp(grid, 0, cache=False)
        info = adjacency_cache().info()
        assert (info.hits, info.misses, info.size) == (0, 0, 0)

    def test_cached_equals_uncached(self, grid):
        src = np.arange(grid.n)
        cold = multi_source(grid, src, cache=False)
        multi_source(grid, src)  # prime
        warm = multi_source(grid, src)
        assert adjacency_cache().info().hits >= 1
        assert np.array_equal(cold, warm)

    def test_lru_eviction(self):
        cache = AdjacencyCache(maxsize=2)
        graphs = [grid_graph(2, k + 2) for k in range(3)]
        for g in graphs:
            cache.get(g)
        assert cache.info().size == 2
        # graphs[0] was evicted: a re-get is a miss, graphs[2] still hits.
        misses = cache.misses
        cache.get(graphs[2])
        assert cache.hits == 1
        cache.get(graphs[0])
        assert cache.misses == misses + 1

    def test_cached_matrix_matches_rebuild(self, multigraph):
        cached = adjacency_cache().get(multigraph)
        rebuilt = adjacency_matrix(multigraph)
        assert (cached != rebuilt).nnz == 0


class TestChunkedDispatch:
    """The one compiled call matches the chunked dispatch it replaced."""

    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_chunked_multi_source_bit_identical(self, chunk, seed):
        g = randomize_weights(gnm_random_graph(30, 60, seed=seed), seed=seed)
        rng = np.random.default_rng(seed)
        sources = rng.integers(0, g.n, size=rng.integers(1, 2 * g.n))
        whole = multi_source(g, sources)
        chunked = chunked_multi_source(g, sources, chunk)
        assert np.array_equal(whole, chunked)

    def test_chunked_spt_forest_bit_identical(self, grid):
        src = np.arange(grid.n)
        d1, p1 = spt_forest(grid, src)
        d2, p2 = chunked_spt_forest(grid, src, 3)
        assert np.array_equal(d1, d2)
        assert np.array_equal(p1, p2)

    def test_all_pairs_matches_reference_dijkstra(self, grid):
        mat = all_pairs(grid)
        for s in range(grid.n):
            assert np.allclose(mat[s], dijkstra(grid, s))


class TestWeightContract:
    def test_subnormal_weight_rejected(self):
        g = CSRGraph(3, [0, 1], [1, 2], [1.0, 1e-13])
        with pytest.raises(GraphError, match="engine contract"):
            adjacency_matrix(g)
        with pytest.raises(GraphError):
            sssp(g, 0)

    def test_zero_and_minimum_weights_accepted(self):
        g = CSRGraph(3, [0, 1], [1, 2], [0.0, MIN_POSITIVE_WEIGHT])
        d = sssp(g, 0)
        assert d[1] == pytest.approx(0.0, abs=1e-200)
        assert d[2] == pytest.approx(MIN_POSITIVE_WEIGHT)
