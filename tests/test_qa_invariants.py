"""The invariant layer: clean pipelines pass, corruption is caught."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.decomposition import reduce_graph
from repro.graph import GraphError, grid_graph
from repro.mcb import depina_mcb, minimum_cycle_basis
from repro.qa import strategies
from repro.qa.invariants import (
    InvariantViolation,
    check_cycle_basis,
    check_reduction,
    invariants_enabled,
)


class TestKnob:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECK_INVARIANTS", raising=False)
        assert not invariants_enabled()

    @pytest.mark.parametrize("value", ["1", "true", "YES", " on "])
    def test_truthy_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", value)
        assert invariants_enabled()

    @pytest.mark.parametrize("value", ["0", "false", "off", ""])
    def test_falsy_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", value)
        assert not invariants_enabled()


class TestReductionInvariant:
    def test_clean_reduction_passes(self):
        g = strategies.theta_graph(4, 6, seed=5)
        check_reduction(reduce_graph(g))

    def test_validate_failure_propagates(self):
        g = strategies.theta_graph(3, 5, seed=0)
        red = reduce_graph(g)
        broken = dataclasses.replace(
            red, graph=red.graph.with_weights(red.graph.edge_w * 2.0)
        )
        with pytest.raises(GraphError, match="chain weight"):
            check_reduction(broken)

    def test_anchor_distance_corruption_caught(self):
        g = strategies.theta_graph(3, 6, seed=0)
        red = reduce_graph(g)
        assert red.n_removed > 0
        red.dist_left = red.dist_left + np.where(red.chain_of >= 0, 0.5, 0.0)
        with pytest.raises(InvariantViolation, match="dist_left"):
            check_reduction(red)

    def test_strict_degree_rejects_unreduced_chain(self):
        g = strategies.theta_graph(3, 6, seed=0)
        keep = np.zeros(g.n, dtype=bool)
        keep[2] = True  # force one interior chain vertex to survive
        red = reduce_graph(g, keep=keep)
        assert int(red.graph.degree[red.reduced_id[2]]) == 2
        check_reduction(red, strict_degree=False)
        with pytest.raises(InvariantViolation, match="not maximal"):
            check_reduction(red, strict_degree=True)

    def test_hook_honors_caller_keep(self, monkeypatch):
        # The embedded hook must not flag a deliberately partial reduction.
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        g = strategies.theta_graph(3, 6, seed=0)
        keep = np.zeros(g.n, dtype=bool)
        keep[2] = True
        red = reduce_graph(g, keep=keep)  # must not raise
        assert bool(red.kept_mask[2])

    def test_hook_fires_under_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        for name, g in strategies.corpus(count=20, seed=4):
            if g.n:
                reduce_graph(g)


class TestCycleBasisInvariant:
    def test_clean_basis_passes(self):
        g = grid_graph(3, 4)
        check_cycle_basis(g, depina_mcb(g))

    def test_dropped_cycle_caught(self):
        g = grid_graph(3, 4)
        basis = depina_mcb(g)
        with pytest.raises(InvariantViolation, match="cycle basis"):
            check_cycle_basis(g, basis[:-1])

    def test_dependent_set_caught(self):
        g = grid_graph(3, 4)
        basis = depina_mcb(g)
        with pytest.raises(InvariantViolation, match="cycle basis"):
            check_cycle_basis(g, basis[:-1] + [basis[0]])

    def test_weight_accounting_mismatch_caught(self):
        g = grid_graph(3, 3)
        basis = depina_mcb(g)
        fudged = [dataclasses.replace(basis[0], weight=basis[0].weight * 2)]
        with pytest.raises(InvariantViolation, match="accounted weight"):
            check_cycle_basis(g, fudged + list(basis[1:]))

    def test_pipeline_hooks_fire_under_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        g = strategies.cactus_graph(3, 4, seed=6)
        basis = minimum_cycle_basis(g, algorithm="mm")  # ear pipeline + check
        assert len(basis) == g.cycle_space_dimension()
        basis = minimum_cycle_basis(g, algorithm="depina")  # witness check too
        assert len(basis) == g.cycle_space_dimension()
        basis = depina_mcb(g)  # direct de Pina witness orthogonality check
        assert len(basis) == g.cycle_space_dimension()
