"""One compiled Dijkstra call per source set vs the chunked dispatch.

``multi_source`` and ``spt_forest`` hand every source to one
``csgraph.dijkstra`` call.  :func:`_support.chunked_multi_source` and
:func:`_support.chunked_spt_forest` keep the chunked loops they replaced;
distances and predecessors must be ``np.array_equal`` with equal dtypes at
every chunk size, and ``engine.chunks_dispatched`` must count one call per
call.
"""

from __future__ import annotations

import numpy as np
import pytest
from _support import chunked_multi_source, chunked_spt_forest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import datasets
from repro.graph import CSRGraph, gnm_random_graph, grid_graph, randomize_weights
from repro.obs import metrics as _metrics
from repro.qa import strategies
from repro.sssp.engine import multi_source, spt_forest

CHUNK_SIZES = (1, 3, 32)

#: paperbench's three workload graphs (fig2-core, fig2-chain, table2-mcb).
WORKLOADS = ("OPF_3754", "Wordnet3", "as-22july06")


def assert_parity(g: CSRGraph, sources) -> None:
    dist = multi_source(g, sources)
    tree_dist, pred = spt_forest(g, sources)
    for chunk in CHUNK_SIZES:
        want = chunked_multi_source(g, sources, chunk)
        assert dist.dtype == want.dtype and np.array_equal(dist, want), chunk
        want_dist, want_pred = chunked_spt_forest(g, sources, chunk)
        assert tree_dist.dtype == want_dist.dtype, chunk
        assert np.array_equal(tree_dist, want_dist), chunk
        assert pred.dtype == want_pred.dtype and np.array_equal(pred, want_pred), chunk


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_random_graphs_with_repeated_sources(seed):
    g = randomize_weights(gnm_random_graph(30, 60, seed=seed), seed=seed)
    rng = np.random.default_rng(seed)
    assert_parity(g, rng.integers(0, g.n, size=rng.integers(1, 2 * g.n)))


def test_corpus():
    for name, g in strategies.corpus(300) + strategies.adversarial_corpus(3):
        if g.n:
            assert_parity(g, np.arange(g.n))


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_graphs(name):
    g = datasets.load(name, 0.02)
    assert_parity(g, np.arange(g.n))


def test_empty_sources():
    assert_parity(grid_graph(4, 5), np.array([], dtype=np.int64))


def test_empty_graph():
    assert_parity(CSRGraph(0, [], [], []), np.array([], dtype=np.int64))


@pytest.mark.parametrize("k", [1, 33, 200])
@pytest.mark.parametrize("call", [multi_source, spt_forest], ids=["multi_source", "spt_forest"])
def test_one_compiled_call_per_source_set(call, k):
    g = grid_graph(15, 15)
    chunks = _metrics.counter("engine.chunks_dispatched")
    before = chunks.value
    call(g, np.arange(k))
    assert chunks.value == before + 1
