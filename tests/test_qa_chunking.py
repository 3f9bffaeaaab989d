"""Dispatch edge cases: the one compiled call vs the chunked dispatch at
chunk size 1 and at a chunk larger than the source set, and empty sources."""

from __future__ import annotations

import numpy as np
import pytest
from _support import chunked_multi_source

from repro.apsp import dijkstra_apsp, ear_apsp_full
from repro.apsp.ear_apsp import extend_reduced_distances
from repro.decomposition import reduce_graph
from repro.graph import grid_graph
from repro.qa import strategies
from repro.sssp import engine

pytestmark = pytest.mark.qa


@pytest.fixture
def graph():
    return grid_graph(4, 5)


def chunked_ear_apsp(g, chunk):
    """``ear_apsp_full`` with Phase II in compiled calls of ``chunk`` sources."""
    red = reduce_graph(g)
    simple = red.simple_graph()
    return extend_reduced_distances(red, chunked_multi_source(simple, np.arange(simple.n), chunk))


class TestChunkSizeOne:
    def test_explicit_chunk_of_one(self, graph):
        sources = np.arange(graph.n)
        assert np.array_equal(dijkstra_apsp(graph), chunked_multi_source(graph, sources, 1))
        assert np.array_equal(ear_apsp_full(graph), chunked_ear_apsp(graph, 1))

    def test_chunk_of_one_on_multigraph(self):
        g = strategies.parallel_hairball(5, 12, seed=7)
        assert np.array_equal(
            chunked_multi_source(g, np.arange(g.n), 1), dijkstra_apsp(g)
        )


class TestChunkLargerThanSources:
    def test_single_oversized_chunk(self, graph):
        sources = np.arange(graph.n)
        assert np.array_equal(dijkstra_apsp(graph), chunked_multi_source(graph, sources, 1000))
        assert np.array_equal(ear_apsp_full(graph), chunked_ear_apsp(graph, 1000))


class TestEmptySources:
    def test_multi_source_empty(self, graph):
        out = engine.multi_source(graph, np.array([], dtype=np.int64))
        assert out.shape == (0, graph.n)

    def test_spt_forest_empty(self, graph):
        dist, parent = engine.spt_forest(graph, np.array([], dtype=np.int64))
        assert dist.shape == (0, graph.n)
        assert parent.shape == (0, graph.n)

    def test_empty_graph_apsp(self):
        from repro.graph import CSRGraph

        g = CSRGraph(0, [], [], [])
        assert dijkstra_apsp(g).shape == (0, 0)
        assert ear_apsp_full(g).shape == (0, 0)

    def test_empty_sources_with_chunk_of_one(self, graph):
        out = engine.multi_source(graph, np.array([], dtype=np.int64))
        want = chunked_multi_source(graph, np.array([], dtype=np.int64), 1)
        assert out.shape == want.shape == (0, graph.n)
