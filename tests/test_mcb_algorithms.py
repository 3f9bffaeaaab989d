"""MCB solvers: de Pina, Horton, Mehlhorn–Michail — cross-validated."""

import networkx as nx
import numpy as np
import pytest

from repro.graph import (
    CSRGraph,
    complete_graph,
    cycle_graph,
    gnm_random_graph,
    grid_graph,
    randomize_weights,
    to_networkx,
)
from repro.mcb import (
    DePinaReport,
    MMReport,
    depina_mcb,
    horton_mcb,
    horton_set,
    mm_mcb,
    perturbed_weights,
    verify_cycle_basis,
)

from _support import biconnected_weighted


def total(cycles):
    return float(sum(c.weight for c in cycles))


def assert_same_weight(a, b, rel=1e-6):
    assert abs(a - b) <= rel * max(1.0, abs(a)), (a, b)


class TestHandComputedCases:
    def test_triangle(self):
        g = cycle_graph(3)
        for solver in (depina_mcb, horton_mcb, mm_mcb):
            basis = solver(g)
            assert len(basis) == 1 and total(basis) == pytest.approx(3.0)

    def test_k4_unit_weights(self):
        g = complete_graph(4)
        for solver in (depina_mcb, horton_mcb, mm_mcb):
            basis = solver(g)
            assert len(basis) == 3
            assert total(basis) == pytest.approx(9.0)  # three triangles
            assert all(len(c) == 3 for c in basis)

    def test_two_triangles_sharing_edge(self):
        g = CSRGraph(4, [0, 1, 0, 0, 1], [1, 2, 2, 3, 3])
        for solver in (depina_mcb, horton_mcb, mm_mcb):
            basis = solver(g)
            assert len(basis) == 2
            assert total(basis) == pytest.approx(6.0)

    def test_petersen_graph(self):
        g = CSRGraph.from_edges(10, list(nx.petersen_graph().edges()))
        for solver in (depina_mcb, mm_mcb):
            basis = solver(g)
            assert len(basis) == 6
            assert total(basis) == pytest.approx(30.0)  # six 5-cycles (girth 5)

    def test_multigraph_by_hand(self, multigraph):
        # cheapest basis: loop (0.5), parallel pair (1+2=3), square (4.0)
        for solver in (depina_mcb, horton_mcb, mm_mcb):
            basis = solver(multigraph)
            assert len(basis) == 3
            assert total(basis) == pytest.approx(7.5)

    def test_grid_unit_weights(self):
        g = grid_graph(3, 4)
        dim = g.cycle_space_dimension()
        for solver in (depina_mcb, mm_mcb):
            basis = solver(g)
            assert len(basis) == dim
            assert total(basis) == pytest.approx(4.0 * dim)  # all unit squares


class TestCrossValidation:
    @pytest.mark.parametrize("seed", range(6))
    def test_depina_equals_horton_random_weights(self, seed):
        g = randomize_weights(gnm_random_graph(16, 26, seed=seed), seed=seed)
        assert_same_weight(total(depina_mcb(g)), total(horton_mcb(g)))

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("lca", [True, False])
    def test_mm_equals_depina_random_weights(self, seed, lca):
        g = randomize_weights(gnm_random_graph(22, 38, seed=seed), seed=seed)
        mm = mm_mcb(g, lca_filter=lca)
        assert verify_cycle_basis(g, mm).ok
        assert_same_weight(total(mm), total(depina_mcb(g)))

    @pytest.mark.parametrize("seed", range(4))
    def test_mm_equals_depina_unit_weights_ties(self, seed):
        g = gnm_random_graph(16, 28, seed=seed)
        assert_same_weight(total(mm_mcb(g)), total(depina_mcb(g)))

    @pytest.mark.parametrize("seed", range(3))
    def test_disconnected_graphs(self, seed):
        g = gnm_random_graph(24, 30, seed=seed, connected=False)
        for solver in (depina_mcb, mm_mcb):
            basis = solver(g)
            rep = verify_cycle_basis(g, basis)
            assert rep.ok
        assert_same_weight(total(depina_mcb(g)), total(mm_mcb(g)))

    def test_depina_all_roots_mode(self):
        g = biconnected_weighted(2, n=14, extra=8)
        assert_same_weight(
            total(depina_mcb(g, roots="all")), total(depina_mcb(g, roots="fvs"))
        )

    def test_depina_bad_roots(self, ring):
        with pytest.raises(ValueError):
            depina_mcb(ring, roots="some")


class TestDegenerateInputs:
    def test_forest_empty_basis(self):
        from repro.graph import path_graph

        for solver in (depina_mcb, horton_mcb, mm_mcb):
            assert solver(path_graph(6)) == []

    def test_empty_graph(self):
        g = CSRGraph(0, [], [])
        for solver in (depina_mcb, horton_mcb, mm_mcb):
            assert solver(g) == []

    def test_single_self_loop(self):
        g = CSRGraph(1, [0], [0], [2.5])
        for solver in (depina_mcb, horton_mcb, mm_mcb):
            basis = solver(g)
            assert len(basis) == 1 and basis[0].weight == pytest.approx(2.5)

    def test_bouquet_of_loops(self):
        g = CSRGraph(1, [0, 0, 0], [0, 0, 0], [1.0, 2.0, 3.0])
        for solver in (depina_mcb, mm_mcb):
            basis = solver(g)
            assert len(basis) == 3
            assert total(basis) == pytest.approx(6.0)


class TestReportsAndInternals:
    def test_depina_report(self):
        g = biconnected_weighted(1, n=12, extra=8)
        rep = DePinaReport()
        depina_mcb(g, report=rep)
        assert rep.f == g.cycle_space_dimension()
        assert rep.searches == rep.f

    def test_mm_report(self):
        g = biconnected_weighted(1, n=16, extra=10)
        rep = MMReport()
        mm_mcb(g, report=rep)
        assert rep.f == g.cycle_space_dimension()
        assert rep.n_fvs > 0
        assert rep.n_candidates >= rep.f
        assert (rep.n, rep.m) == (g.n, g.m)
        # One scan per phase, each testing at least the candidate it selects.
        assert len(rep.tested) == rep.f
        assert all(t >= 1 for t in rep.tested)
        assert rep.witness_bytes > 0 and rep.store_bytes > 0

    def test_mm_block_sizes(self):
        g = biconnected_weighted(3, n=18, extra=12)
        ref = total(mm_mcb(g))
        for bs in (1, 7, 64, 4096):
            assert_same_weight(total(mm_mcb(g, block_size=bs)), ref)

    def test_horton_set_sorted_and_valid(self):
        g = biconnected_weighted(0, n=12, extra=6)
        cycles = horton_set(g)
        weights = [c.weight for c in cycles]
        assert weights == sorted(weights)
        assert all(c.is_valid_cycle(g) for c in cycles)

    def test_perturbed_weights_tiny_and_distinct(self, grid):
        pw = perturbed_weights(grid)
        assert np.unique(pw).size == grid.m  # all distinct now
        assert np.max(np.abs(pw - grid.edge_w)) < 1e-6

    def test_mm_no_perturb_on_generic_weights(self):
        g = biconnected_weighted(4, n=14, extra=8)
        assert_same_weight(total(mm_mcb(g, perturb=False)), total(depina_mcb(g)))
