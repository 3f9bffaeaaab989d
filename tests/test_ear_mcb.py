"""Ear-reduced MCB: Lemma 3.1 in executable form."""

import numpy as np
import pytest

from repro.decomposition import reduce_graph
from repro.graph import (
    CSRGraph,
    cycle_graph,
    randomize_weights,
    subdivide_edges,
)
from repro.mcb import (
    EarMCBReport,
    depina_mcb,
    horton_mcb,
    minimum_cycle_basis,
    verify_cycle_basis,
)

from _support import biconnected_weighted, composite_graph


def total(cycles):
    return float(sum(c.weight for c in cycles))


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("algorithm", ["mm", "depina"])
def test_ear_equals_no_ear(seed, algorithm):
    g = composite_graph(seed, n=22, m=32)
    with_ear = minimum_cycle_basis(g, algorithm=algorithm, use_ear=True)
    without = minimum_cycle_basis(g, algorithm=algorithm, use_ear=False)
    assert verify_cycle_basis(g, with_ear).ok
    assert verify_cycle_basis(g, without).ok
    assert total(with_ear) == pytest.approx(total(without), rel=1e-6)


@pytest.mark.parametrize("seed", range(4))
def test_matches_horton_oracle(seed):
    g = subdivide_edges(biconnected_weighted(seed, n=12, extra=6), 0.5, seed=seed)
    basis = minimum_cycle_basis(g)
    oracle = horton_mcb(g)
    assert total(basis) == pytest.approx(total(oracle), rel=1e-6)


def test_lemma31_dimension_and_weight():
    """dim(MCB(G)) == dim(MCB(G^r)) and W(MCB(G)) == W(MCB(G^r))."""
    g = subdivide_edges(biconnected_weighted(7, n=15, extra=9), 0.6, seed=7)
    red = reduce_graph(g)
    mcb_g = depina_mcb(g)
    mcb_r = depina_mcb(red.graph)
    assert len(mcb_g) == len(mcb_r)  # statement 3
    assert total(mcb_g) == pytest.approx(total(mcb_r), rel=1e-9)  # statement 4


def test_expanded_cycles_are_valid_in_original():
    g = subdivide_edges(biconnected_weighted(3, n=14, extra=8), 0.7, seed=3)
    basis = minimum_cycle_basis(g)
    for cyc in basis:
        assert cyc.is_valid_cycle(g)
        # recorded weight equals the support weight in G
        assert cyc.weight == pytest.approx(cyc.support_weight(g), rel=1e-9)


def test_pure_cycle_graph():
    g = randomize_weights(cycle_graph(12), seed=1)
    basis = minimum_cycle_basis(g)
    assert len(basis) == 1
    assert basis[0].weight == pytest.approx(g.total_weight)
    assert len(basis[0]) == g.m  # expanded back to all 12 edges


def test_cycles_never_span_components():
    g = composite_graph(2)
    from repro.decomposition import biconnected_components

    bcc = biconnected_components(g)
    basis = minimum_cycle_basis(g)
    for cyc in basis:
        comps = set(bcc.edge_component[cyc.edge_ids].tolist())
        assert len(comps) == 1
        assert cyc.meta["component"] in comps


def test_report_fields():
    g = subdivide_edges(biconnected_weighted(2, n=16, extra=10), 0.5, seed=2)
    rep = EarMCBReport()
    basis = minimum_cycle_basis(g, report=rep)
    assert rep.n == g.n and rep.m == g.m
    assert rep.f == len(basis)
    assert rep.n_removed > 0
    assert rep.n_solved_components >= 1
    assert len(rep.solver_reports) == len(rep.component_m) == rep.n_solved_components
    # Per component, the solver's counts describe the reduced graph it ran on.
    assert sum(r.f for r in rep.solver_reports) == rep.f
    for comp_m, mm in zip(rep.component_m, rep.solver_reports):
        assert mm.m < comp_m
        assert len(mm.tested) == mm.f


def test_forest_graph_empty_basis():
    from repro.graph import path_graph

    assert minimum_cycle_basis(path_graph(8)) == []


def test_unknown_algorithm():
    with pytest.raises(ValueError):
        minimum_cycle_basis(cycle_graph(4), algorithm="magic")


def test_solver_kwargs_forwarded():
    g = biconnected_weighted(5, n=14, extra=6)
    a = minimum_cycle_basis(g, algorithm="mm", block_size=8, lca_filter=False)
    b = minimum_cycle_basis(g, algorithm="mm")
    assert total(a) == pytest.approx(total(b), rel=1e-6)


def test_multigraph_input(multigraph):
    basis = minimum_cycle_basis(multigraph)
    rep = verify_cycle_basis(multigraph, basis)
    assert rep.ok
    assert rep.total_weight == pytest.approx(7.5)
