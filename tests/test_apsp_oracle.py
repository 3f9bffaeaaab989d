"""Distance oracle: exactness and the Table-1 memory model."""

import numpy as np
import pytest

from repro.apsp import DistanceOracle, dijkstra_apsp
from repro.graph import CSRGraph, path_graph, table1_row

from _support import composite_graph


@pytest.mark.parametrize("seed", range(6))
def test_oracle_matches_full_matrix(seed):
    g = composite_graph(seed)
    oracle = DistanceOracle(g)
    ref = dijkstra_apsp(g)
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, g.n, size=(250, 2))
    got = oracle.query_many(pairs)
    want = ref[pairs[:, 0], pairs[:, 1]]
    assert np.allclose(
        np.nan_to_num(got, posinf=-1), np.nan_to_num(want, posinf=-1), atol=1e-8
    )


def test_oracle_all_pairs_small():
    g = composite_graph(0, n=12, m=16)
    oracle = DistanceOracle(g)
    ref = dijkstra_apsp(g)
    for u in range(g.n):
        for v in range(g.n):
            q = oracle.query(u, v)
            r = ref[u, v]
            assert (np.isinf(q) and np.isinf(r)) or np.isclose(q, r, atol=1e-8), (u, v)


def test_identity_and_isolated():
    g = CSRGraph(4, [0], [1])
    oracle = DistanceOracle(g)
    assert oracle.query(2, 2) == 0.0
    assert np.isinf(oracle.query(0, 2))
    assert np.isinf(oracle.query(2, 3))


def test_disconnected_components_inf():
    g = CSRGraph(6, [0, 1, 3, 4], [1, 2, 4, 5])
    oracle = DistanceOracle(g)
    assert np.isinf(oracle.query(0, 3))
    assert oracle.query(0, 2) == 2.0


def test_memory_smaller_than_dense():
    g = composite_graph(0)
    oracle = DistanceOracle(g)
    assert oracle.memory_bytes() <= oracle.full_matrix_bytes()


def _saving(g) -> float:
    """The model's ``n² / (a² + Σ nᵢ²)`` saving factor."""
    b = table1_row(g).storage_bytes(4)
    return b["dense_bytes"] / b["oracle_bytes"]


def test_memory_model_formula():
    g = path_graph(4)  # 3 bridges (2x2 tables), 2 APs
    b = table1_row(g).storage_bytes(4)
    expected_entries = 3 * 4 + 2 * 2
    assert b["oracle_bytes"] == expected_entries * 4
    assert b["dense_bytes"] == 16 * 4
    # amusing identity: for a path, a² + Σ nᵢ² == n² exactly
    assert _saving(g) == 1.0


def test_memory_model_star_saves():
    # star: n-1 bridge blocks of 4 entries + one AP -> far below n²
    n = 9
    g = CSRGraph(n, [0] * (n - 1), list(range(1, n)))
    assert _saving(g) > 1.5


def test_memory_model_biconnected_equals_dense():
    from repro.graph import complete_graph

    assert _saving(complete_graph(8)) == 1.0


def test_memory_model_savings_grow_with_fragmentation():
    base = composite_graph(0)
    star = CSRGraph(base.n, [0] * (base.n - 1), list(range(1, base.n)))
    assert _saving(star) > _saving(base)


def test_memory_model_matches_the_built_oracle():
    """The model's per-BCC store is what a built oracle holds."""
    g = composite_graph(1)
    oracle = DistanceOracle(g)
    b = table1_row(g).storage_bytes(4)
    assert oracle.memory_bytes() == b["oracle_bytes"]
    assert oracle.full_matrix_bytes() == b["dense_bytes"]
