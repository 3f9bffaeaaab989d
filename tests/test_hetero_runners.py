"""Heterogeneous MCB/APSP runners: correct answers + sensible timings."""

import numpy as np
import pytest

from repro.apsp import assemble_full_matrix, build_component_tables, dijkstra_apsp
from repro.decomposition import biconnected_components
from repro.graph import randomize_weights, random_biconnected_graph, subdivide_edges
from repro.hetero import (
    Platform,
    apsp_with_trace,
    mcb_with_trace,
    run_mcb_on_platforms,
    simulate_trace,
)
from repro.mcb import minimum_cycle_basis, verify_cycle_basis
from repro.qa import strategies

from _support import close, composite_graph


@pytest.fixture(scope="module")
def medium():
    g = random_biconnected_graph(100, 70, seed=2)
    return subdivide_edges(randomize_weights(g, seed=2), 0.6, seed=2, chain_length=(2, 4))


class TestMCBRunner:
    def test_cycles_match_reference(self, medium):
        cycles, trace = mcb_with_trace(medium, use_ear=True)
        rep = verify_cycle_basis(medium, cycles)
        assert rep.ok
        ref = verify_cycle_basis(medium, minimum_cycle_basis(medium, algorithm="depina"))
        assert rep.total_weight == pytest.approx(ref.total_weight, rel=1e-6)

    def test_trace_has_expected_stages(self, medium):
        _, trace = mcb_with_trace(medium, use_ear=True)
        kinds = {s.kind for s in trace.stages}
        assert {"decompose", "reduce", "spt", "labels", "scan", "update"} <= kinds

    def test_no_ear_trace_has_no_reduce(self, medium):
        _, trace = mcb_with_trace(medium, use_ear=False)
        assert "reduce" not in {s.kind for s in trace.stages}

    def test_ear_reduces_total_work(self, medium):
        _, with_ear = mcb_with_trace(medium, use_ear=True)
        _, without = mcb_with_trace(medium, use_ear=False)
        assert with_ear.total_work < without.total_work

    def test_platform_results(self, medium):
        res = run_mcb_on_platforms(medium, use_ear=True)
        assert set(res.timings) == {"sequential", "multicore", "gpu", "cpu+gpu"}
        sp = res.speedups_vs_sequential()
        assert sp["sequential"] == pytest.approx(1.0)
        # heterogeneous must beat single devices at this scale
        assert sp["cpu+gpu"] >= max(sp["multicore"], sp["gpu"]) * 0.7
        assert res.total_weight > 0

    def test_works_on_composite_graphs(self):
        g = composite_graph(0)
        cycles, _ = mcb_with_trace(g, use_ear=True)
        assert verify_cycle_basis(g, cycles).ok


class TestAPSPRunner:
    def test_matrix_exact(self, medium):
        mat, _ = apsp_with_trace(medium, use_ear=True)
        assert close(mat, dijkstra_apsp(medium))

    def test_matrix_exact_general(self):
        g = composite_graph(2)
        mat, _ = apsp_with_trace(g, use_ear=True)
        assert close(mat, dijkstra_apsp(g))

    def test_ear_reduces_dijkstra_work(self, medium):
        _, with_ear = apsp_with_trace(medium, use_ear=True)
        _, without = apsp_with_trace(medium, use_ear=False)
        def dijkstra_work(trace):
            return sum(s.total_work for s in trace.stages if s.kind == "dijkstra")

        assert 0 < dijkstra_work(with_ear) < dijkstra_work(without)

    def test_platforms(self, medium):
        mat, trace = apsp_with_trace(medium, use_ear=True)
        seq = simulate_trace(trace, Platform.sequential()).total_time
        assert simulate_trace(trace, Platform.heterogeneous()).total_time < seq
        assert close(mat, dijkstra_apsp(medium))

    def test_trace_replay_consistency(self, medium):
        _, trace = apsp_with_trace(medium, use_ear=True)
        a = simulate_trace(trace, Platform.sequential()).total_time
        b = simulate_trace(trace, Platform.sequential()).total_time
        assert a == pytest.approx(b)


# Graphs with several biconnected components: the runners must replay the
# public per-BCC pipelines exactly, component for component.
MULTI_BCC = {
    "cactus": strategies.cactus_graph(4, 5, seed=1),
    "bridge-heavy": strategies.bridge_heavy_graph(seed=2),
    "star-of-cycles": strategies.star_of_cycles(3, 4, seed=3),
    "disconnected": strategies.disconnected_graph(seed=4),
}


@pytest.mark.parametrize("name", sorted(MULTI_BCC))
class TestRunnersReplayPublicPipelines:
    def test_graph_has_several_bccs(self, name):
        assert biconnected_components(MULTI_BCC[name]).count >= 2

    def test_apsp_bit_identical_to_composed_pipeline(self, name):
        g = MULTI_BCC[name]
        mat, _ = apsp_with_trace(g)
        assert np.array_equal(mat, assemble_full_matrix(g, build_component_tables(g)))

    def test_mcb_equals_minimum_cycle_basis(self, name):
        g = MULTI_BCC[name]
        cycles, _ = mcb_with_trace(g)
        ref = minimum_cycle_basis(g)
        assert len(cycles) == len(ref)
        for a, b in zip(cycles, ref):
            assert np.array_equal(a.edge_ids, b.edge_ids)
            assert a.weight == b.weight
