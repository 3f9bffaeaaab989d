"""Bit-identity of the vectorized bulk-query fast paths.

The vectorized ``query_many`` kernels must return *bit-identical* results
to the scalar ``query`` loop (kept as ``query_many_scalar``) — same
lookups, same minimum sets, same floating-point association order — on
the full adversarial corpus, including disconnected graphs, self-loop
blocks, and single-chain cycles.  The corpus seed is the session
``--repro-seed``, so failures replay exactly.

The same paths are enrolled in the differential registry as
``oracle-bulk`` / ``reduced-oracle-bulk``, which additionally checks the
full matrices against the scipy Dijkstra reference.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apsp.oracle import DistanceOracle
from repro.apsp.reduced_oracle import ReducedDistanceOracle
from repro.graph import cycle_graph
from repro.obs import metrics
from repro.qa import strategies
from repro.qa.differential import APSP_REGISTRY, run_apsp_differential

pytestmark = pytest.mark.qa

CORPUS_COUNT = 60

ORACLES = [
    pytest.param(DistanceOracle, id="oracle"),
    pytest.param(ReducedDistanceOracle, id="reduced-oracle"),
]


def _pairs_for(n: int, seed: int) -> np.ndarray:
    """Exhaustive pairs for small graphs, a random sample otherwise."""
    if n <= 25:
        uu, vv = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        return np.column_stack([uu.ravel(), vv.ravel()]).astype(np.int64)
    rng = np.random.default_rng(seed)
    return rng.integers(0, n, size=(600, 2), dtype=np.int64)


def assert_bit_identical(oracle_cls, g, name: str, seed: int) -> None:
    o = oracle_cls(g)
    pairs = _pairs_for(g.n, seed)
    got = o.query_many(pairs)
    want = o.query_many_scalar(pairs)
    assert np.array_equal(got, want), (
        f"{oracle_cls.__name__} on {name}: "
        f"{int(np.sum(got != want))} of {len(pairs)} pairs differ"
    )


@pytest.mark.parametrize("oracle_cls", ORACLES)
class TestBitIdentity:
    def test_corpus(self, oracle_cls, repro_seed):
        for name, g in strategies.corpus(count=CORPUS_COUNT, seed=repro_seed):
            if g.n == 0:
                continue
            assert_bit_identical(oracle_cls, g, name, repro_seed)

    def test_single_chain_cycle(self, oracle_cls, repro_seed):
        # A pure cycle reduces to one chain whose endpoints coincide — the
        # degenerate same-chain case where both closed-form anchors alias.
        for n in (3, 4, 7, 12):
            assert_bit_identical(oracle_cls, cycle_graph(n), f"cycle-{n}", repro_seed)

    def test_disconnected(self, oracle_cls, repro_seed):
        g = strategies.disconnected_graph(3, 5, isolated=2, seed=repro_seed)
        assert_bit_identical(oracle_cls, g, "disconnected", repro_seed)

    def test_star_of_cycles(self, oracle_cls, repro_seed):
        # Articulation-point-heavy: every cross-arm pair routes through
        # the hub's boundary articulation points.
        g = strategies.star_of_cycles(arms=4, cycle_len=5, seed=repro_seed)
        assert_bit_identical(oracle_cls, g, "star-of-cycles", repro_seed)

    def test_empty_pairs(self, oracle_cls):
        o = oracle_cls(strategies.theta_graph(3, 4, seed=0))
        out = o.query_many(np.empty((0, 2), dtype=np.int64))
        assert out.shape == (0,)


@pytest.mark.parametrize("oracle_cls", ORACLES)
class TestPairValidation:
    @pytest.mark.parametrize("bad", ["negative", "n"])
    def test_out_of_range_vertex_id_rejected(self, oracle_cls, bad):
        # Unchecked, numpy wraps -1 to the last vertex (answering
        # d(n - 1, 0)) and n raises a bare IndexError.
        g = strategies.star_of_cycles(arms=3, cycle_len=4, seed=5)
        vid = -1 if bad == "negative" else g.n
        o = oracle_cls(g)
        with pytest.raises(ValueError, match=rf"vertex id {vid} is outside \[0, {g.n}\)"):
            o.query_many(np.array([[vid, 0]]))

    @pytest.mark.parametrize(
        "u, v, bad", [(-1, 0, -1), (10, 0, 10), (0, -1, -1), (-1, -1, -1)]
    )
    def test_scalar_query_rejects_out_of_range_id(self, oracle_cls, u, v, bad):
        # Unchecked, an unknown id answered ``inf`` (and ``(-1, -1)`` 0.0
        # through the ``u == v`` shortcut) instead of failing like query_many.
        g = strategies.star_of_cycles(arms=3, cycle_len=4, seed=5)
        assert g.n == 10
        with pytest.raises(ValueError, match=rf"vertex id {bad} is outside \[0, 10\)"):
            oracle_cls(g).query(u, v)


class TestRegistry:
    def test_bulk_paths_enrolled(self):
        assert "oracle-bulk" in APSP_REGISTRY
        assert "reduced-oracle-bulk" in APSP_REGISTRY

    def test_bulk_paths_agree_with_reference(self, repro_seed):
        graphs = strategies.corpus(count=20, seed=repro_seed)
        report = run_apsp_differential(
            graphs, impls=["dijkstra-scipy", "oracle-bulk", "reduced-oracle-bulk"]
        )
        assert report.ok, report.summary()


class TestCounters:
    def test_pair_classification_counters(self):
        g = strategies.star_of_cycles(arms=3, cycle_len=4, seed=5)
        o = DistanceOracle(g)
        pairs = _pairs_for(g.n, seed=5)
        before = metrics.counter("bulk_query.pairs").value
        o.query_many(pairs)
        assert metrics.counter("bulk_query.pairs").value - before == len(pairs)
