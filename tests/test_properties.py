"""Hypothesis property tests over the paper's core invariants.

Each property is an executable statement of a claim the paper relies on:
distance preservation under reduction (Section 2.1), the post-processing
formulas (Section 2.1.3), Lemma 3.1, FVS coverage, and oracle/table
consistency (Section 2.2/2.3).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apsp import DistanceOracle, dijkstra_apsp, ear_apsp_full
from repro.decomposition import reduce_graph
from repro.graph import CSRGraph
from repro.mcb import (
    depina_mcb,
    greedy_fvs,
    horton_set,
    is_feedback_vertex_set,
    mm_mcb,
    verify_cycle_basis,
)
from repro.sssp import dijkstra

SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def random_graph(draw, min_n=2, max_n=16, connected=False, weighted=True):
    n = draw(st.integers(min_n, max_n))
    max_m = n * (n - 1) // 2
    m = draw(st.integers(0, min(max_m, 3 * n)))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    pairs = set()
    us, vs = [], []
    if connected:
        perm = rng.permutation(n)
        for i in range(1, n):
            j = int(rng.integers(0, i))
            a, b = int(perm[i]), int(perm[j])
            pairs.add((min(a, b), max(a, b)))
    tries = 0
    while len(pairs) < m and tries < 20 * m + 20:
        a, b = rng.integers(0, n, size=2)
        tries += 1
        if a != b:
            pairs.add((int(min(a, b)), int(max(a, b))))
    us = [p[0] for p in pairs]
    vs = [p[1] for p in pairs]
    w = rng.uniform(0.5, 2.0, len(pairs)) if weighted else np.ones(len(pairs))
    return CSRGraph(n, us, vs, w)


@st.composite
def random_multigraph(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(0, 2 * n + 4))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    us = rng.integers(0, n, m)
    vs = rng.integers(0, n, m)
    return CSRGraph(n, us, vs, rng.uniform(0.5, 2.0, m))


class TestReductionInvariants:
    @given(random_graph())
    @settings(**SETTINGS)
    def test_reduction_validates(self, g):
        reduce_graph(g).validate()

    @given(random_graph(connected=True, min_n=3))
    @settings(**SETTINGS)
    def test_kept_vertex_distances_preserved(self, g):
        red = reduce_graph(g)
        if red.graph.n < 2:
            return
        simple = red.simple_graph()
        d_r = dijkstra(simple, 0)
        d_g = dijkstra(g, int(red.kept_ids[0]))
        assert np.allclose(d_r, d_g[red.kept_ids], atol=1e-9)

    @given(random_graph())
    @settings(**SETTINGS)
    def test_chain_edges_partition_edge_set(self, g):
        red = reduce_graph(g)
        covered = np.concatenate([c.edges for c in red.chains]) if red.chains else np.array([], dtype=np.int64)
        assert sorted(covered.tolist()) == list(range(g.m))

    @given(random_graph())
    @settings(**SETTINGS)
    def test_cycle_space_dimension_invariant(self, g):
        # chain contraction never changes m - n + c
        red = reduce_graph(g)
        assert red.graph.cycle_space_dimension() == g.cycle_space_dimension()


class TestAPSPInvariants:
    @given(random_graph())
    @settings(**SETTINGS)
    def test_ear_apsp_equals_dijkstra(self, g):
        assert np.allclose(
            np.nan_to_num(ear_apsp_full(g), posinf=-1),
            np.nan_to_num(dijkstra_apsp(g, engine="python"), posinf=-1),
            atol=1e-8,
        )

    @given(random_graph(min_n=3), st.integers(0, 10_000))
    @settings(**SETTINGS)
    def test_oracle_equals_matrix(self, g, qseed):
        oracle = DistanceOracle(g)
        ref = dijkstra_apsp(g, engine="python")
        rng = np.random.default_rng(qseed)
        for _ in range(15):
            u, v = rng.integers(0, g.n, 2)
            q = oracle.query(int(u), int(v))
            r = ref[u, v]
            assert (np.isinf(q) and np.isinf(r)) or abs(q - r) < 1e-8

    @given(random_graph())
    @settings(**SETTINGS)
    def test_triangle_inequality(self, g):
        d = ear_apsp_full(g)
        n = g.n
        rng = np.random.default_rng(0)
        for _ in range(20):
            i, j, k = rng.integers(0, n, 3)
            if np.isfinite(d[i, k]) and np.isfinite(d[k, j]):
                assert d[i, j] <= d[i, k] + d[k, j] + 1e-9


class TestMCBInvariants:
    @given(random_multigraph())
    @settings(**SETTINGS)
    def test_fvs_covers_all_cycles(self, g):
        assert is_feedback_vertex_set(g, greedy_fvs(g))

    @given(random_multigraph(max_n=6))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_depina_basis_verifies(self, g):
        basis = depina_mcb(g)
        assert verify_cycle_basis(g, basis).ok or g.cycle_space_dimension() == 0

    @given(random_graph(min_n=4, max_n=12, connected=True))
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_lemma31_weight_equality(self, g):
        """W(MCB(G)) == W(MCB(G^r)) — the heart of Section 3.3.1."""
        red = reduce_graph(g)
        w_g = sum(c.weight for c in depina_mcb(g))
        w_r = sum(c.weight for c in depina_mcb(red.graph))
        assert abs(w_g - w_r) < 1e-6 * max(1.0, w_g)

    @given(random_graph(min_n=4, max_n=12, connected=True))
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_mm_equals_depina(self, g):
        w_mm = sum(c.weight for c in mm_mcb(g))
        w_dp = sum(c.weight for c in depina_mcb(g))
        assert abs(w_mm - w_dp) < 1e-6 * max(1.0, w_dp)


class TestCSRInvariants:
    @given(random_multigraph(max_n=12))
    @settings(**SETTINGS)
    def test_degree_sum_is_twice_edges(self, g):
        assert int(g.degree.sum()) == 2 * g.m

    @given(random_multigraph(max_n=12))
    @settings(**SETTINGS)
    def test_csr_slot_count(self, g):
        loops = int((g.edge_u == g.edge_v).sum())
        assert g.indptr[-1] == 2 * g.m - loops

    @given(random_multigraph(max_n=10))
    @settings(**SETTINGS)
    def test_simplify_preserves_distances(self, g):
        from repro.sssp import dijkstra

        s = g.simplify()
        if g.n == 0:
            return
        assert np.allclose(
            np.nan_to_num(dijkstra(g, 0), posinf=-1),
            np.nan_to_num(dijkstra(s, 0), posinf=-1),
            atol=1e-12,
        )

    @given(random_multigraph(max_n=10), st.integers(0, 10_000))
    @settings(**SETTINGS)
    def test_permutation_preserves_structure(self, g, seed):
        rng = np.random.default_rng(seed)
        perm = rng.permutation(g.n) if g.n else np.zeros(0, dtype=np.int64)
        h = g.reverse_permutation(perm)
        assert h.m == g.m
        assert sorted(h.degree.tolist()) == sorted(g.degree.tolist())
        assert np.isclose(h.total_weight, g.total_weight)

    @given(random_multigraph(max_n=10))
    @settings(**SETTINGS)
    def test_npz_roundtrip(self, g):
        import os
        import tempfile

        from repro.graph import load_npz, save_npz

        fd, name = tempfile.mkstemp(suffix=".npz")
        os.close(fd)
        try:
            save_npz(g, name)
            assert load_npz(name) == g
        finally:
            os.unlink(name)


class TestBFSInvariants:
    @given(random_graph(min_n=2, max_n=14, weighted=False))
    @settings(**SETTINGS)
    def test_bfs_equals_unit_dijkstra(self, g):
        import networkx as nx

        from repro.graph import to_networkx

        hops = np.full(g.n, np.inf)
        for v, h in nx.single_source_shortest_path_length(to_networkx(g), 0).items():
            hops[v] = h
        assert np.allclose(
            np.nan_to_num(hops, posinf=-1),
            np.nan_to_num(dijkstra(g, 0), posinf=-1),
        )


class TestGirthInvariants:
    @given(random_graph(min_n=3, max_n=10, connected=True))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_girth_lower_bounds_every_mcb_cycle(self, g):
        basis = depina_mcb(g)
        if not basis:
            return
        # Horton's candidate set holds a minimum-weight cycle, sorted first.
        w = horton_set(g)[0].weight
        assert all(c.weight >= w - 1e-9 for c in basis)
        assert w == pytest.approx(min(c.weight for c in basis), rel=1e-9)
