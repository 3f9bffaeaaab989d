"""The graph-strategy library generates what it claims to generate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.decomposition import reduce_graph
from repro.qa import strategies

from _support import bridge_count

pytestmark = pytest.mark.qa


class TestFamilies:
    def test_theta_reduces_to_parallel_edges(self):
        g = strategies.theta_graph(n_chains=4, chain_len=6, seed=3)
        interior = np.nonzero(g.degree == 2)[0]
        assert interior.size == 4 * 5  # every non-hub vertex is contractible
        red = reduce_graph(g)
        assert red.graph.n == 2
        assert red.graph.m == 4
        assert red.graph.has_parallel_edges

    def test_cactus_one_bcc_per_cycle(self):
        from repro.decomposition import biconnected_components

        g = strategies.cactus_graph(n_cycles=5, cycle_len=4, seed=7)
        bcc = biconnected_components(g)
        cyclic = sum(
            1 for c in range(bcc.count) if bcc.component_edges[c].size > 1
        )
        assert cyclic == 5
        assert g.cycle_space_dimension() == 5

    def test_bridge_heavy_has_bridges_and_pendants(self):
        g = strategies.bridge_heavy_graph(n_blocks=4, block_size=4, seed=1)
        assert bridge_count(g) >= 3  # the block-joining edges at least
        assert np.any(g.degree == 1)  # the pendant tail

    def test_hairball_is_multigraph(self):
        g = strategies.parallel_hairball(n=4, m=20, seed=2)
        assert g.has_parallel_edges or g.has_self_loops

    def test_disconnected_has_isolates_and_components(self):
        g = strategies.disconnected_graph(n_parts=3, part_size=4, isolated=2, seed=5)
        count, _ = g.connected_components()
        assert count >= 5
        assert np.any(g.degree == 0)

    def test_star_of_cycles_single_cut_vertex(self):
        g = strategies.star_of_cycles(arms=3, cycle_len=4, seed=0)
        assert int(g.degree[0]) == 6  # three cycles through the centre
        assert g.cycle_space_dimension() == 3

    def test_reweighted_modes(self):
        g = strategies.theta_graph(3, 4, seed=0)
        assert np.all(strategies.reweighted(g, "ties").edge_w == 1.0)
        few = strategies.reweighted(g, "few", seed=1)
        assert set(np.unique(few.edge_w)) <= {1.0, 2.0}
        nz = strategies.reweighted(g, "near-zero", seed=1)
        assert np.all(nz.edge_w >= 1e-12) and np.all(nz.edge_w <= 1e-8)
        with pytest.raises(ValueError):
            strategies.reweighted(g, "nope")


class TestCorpus:
    def test_deterministic_in_seed(self):
        a = strategies.corpus(count=50, seed=9)
        b = strategies.corpus(count=50, seed=9)
        assert [n for n, _ in a] == [n for n, _ in b]
        assert all(x.fingerprint == y.fingerprint for (_, x), (_, y) in zip(a, b))

    def test_different_seed_different_graphs(self):
        a = strategies.corpus(count=50, seed=1)
        b = strategies.corpus(count=50, seed=2)
        assert any(x.fingerprint != y.fingerprint for (_, x), (_, y) in zip(a, b))

    def test_covers_adversarial_classes(self):
        graphs = [g for _, g in strategies.corpus(count=60, seed=0)]
        assert any(g.has_parallel_edges for g in graphs)
        assert any(g.has_self_loops for g in graphs)
        assert any(g.n == 0 for g in graphs)
        assert any(not g.is_connected() for g in graphs)
        assert any(np.all(g.edge_w == 1.0) and g.m > 0 for g in graphs)
        assert any(bridge_count(g) for g in graphs)

    def test_padding_to_count(self):
        assert len(strategies.corpus(count=5, seed=0)) == 5
        assert len(strategies.corpus(count=123, seed=0)) == 123

    def test_random_corpus_names_unique(self):
        names = [n for n, _ in strategies.random_corpus(40, seed=3)]
        assert len(set(names)) == 40


class TestHypothesisStrategy:
    def test_draws_valid_graphs(self):
        from hypothesis import given, settings

        seen = []

        @given(strategies.graph_strategy(max_n=12))
        @settings(max_examples=30, deadline=None)
        def inner(g):
            assert g.n >= 0 and g.m >= 0
            assert np.all(g.edge_w > 0)
            seen.append(g)

        inner()
        assert seen
