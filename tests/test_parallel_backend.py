"""Process-parallel CPU backend: parity with the serial engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apsp import dijkstra_apsp
from repro.graph import gnm_random_graph, randomize_weights
from repro.hetero.parallel import (
    ParallelEngine,
    SharedCSRBuffers,
    parallel_all_pairs,
    resolve_workers,
)
from repro.sssp import engine


@pytest.fixture
def medium():
    return randomize_weights(gnm_random_graph(60, 140, seed=11), seed=11)


class TestResolveWorkers:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "6")
        assert resolve_workers(3) == 3

    def test_env_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert resolve_workers() == 4

    def test_floor_of_one(self):
        assert resolve_workers(0) == 1
        assert resolve_workers(-5) == 1

    def test_default_positive(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers() >= 1


class TestSharedBuffers:
    def test_roundtrip(self, medium):
        mat = engine.adjacency_matrix(medium)
        buf = SharedCSRBuffers(mat)
        try:
            remat, shms = SharedCSRBuffers.attach(buf.spec)
            assert (remat != mat).nnz == 0
            for shm in shms:
                shm.close()
        finally:
            buf.close()

    def test_close_idempotent(self, medium):
        buf = SharedCSRBuffers(engine.adjacency_matrix(medium))
        buf.close()
        buf.close()


class TestParallelParity:
    def test_two_workers_bit_identical(self, medium):
        want = engine.all_pairs(medium)
        with ParallelEngine(medium, workers=2, chunk_size=8) as eng:
            got = eng.all_pairs()
        assert np.array_equal(got, want)

    def test_multi_source_subset(self, medium):
        rng = np.random.default_rng(0)
        sources = rng.integers(0, medium.n, size=23)
        want = engine.multi_source(medium, sources)
        with ParallelEngine(medium, workers=2, chunk_size=5) as eng:
            got = eng.multi_source(sources)
        assert np.array_equal(got, want)

    def test_spt_forest_parity(self, medium):
        sources = np.arange(0, medium.n, 3)
        d_want, p_want = engine.spt_forest(medium, sources)
        with ParallelEngine(medium, workers=2, chunk_size=7) as eng:
            d_got, p_got = eng.spt_forest(sources)
        assert np.array_equal(d_got, d_want)
        assert np.array_equal(p_got, p_want)

    def test_engine_parallel_option_in_apsp(self, medium):
        want = dijkstra_apsp(medium, engine="scipy")
        got = dijkstra_apsp(medium, engine="parallel", workers=2, chunk_size=16)
        assert np.array_equal(got, want)


class TestSerialFallback:
    def test_single_worker_no_pool(self, medium):
        with ParallelEngine(medium, workers=1) as eng:
            assert not eng.is_parallel
            assert np.array_equal(eng.all_pairs(), engine.all_pairs(medium))

    def test_env_workers_one(self, medium, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "1")
        assert np.array_equal(parallel_all_pairs(medium), engine.all_pairs(medium))

    def test_empty_sources(self, medium):
        with ParallelEngine(medium, workers=2) as eng:
            out = eng.multi_source(np.array([], dtype=np.int64))
        assert out.shape == (0, medium.n)

    def test_empty_graph(self):
        from repro.graph import CSRGraph

        g = CSRGraph(0, [], [], [])
        with ParallelEngine(g, workers=2) as eng:
            assert not eng.is_parallel
            assert eng.all_pairs().shape == (0, 0)

    def test_close_is_idempotent_and_serial_after(self, medium):
        eng = ParallelEngine(medium, workers=2, chunk_size=8)
        want = engine.all_pairs(medium)
        assert np.array_equal(eng.all_pairs(), want)
        eng.close()
        eng.close()
        # After close the engine degrades to the serial path.
        assert np.array_equal(eng.all_pairs(), want)


class TestDispatchUtilisationHistogram:
    def test_observed_once_per_dispatch(self):
        from repro.obs import tracing
        from repro.obs.metrics import registry
        from repro.qa.strategies import star_of_cycles

        g = star_of_cycles(arms=4, cycle_len=8, seed=3)
        hist = registry().histogram("parallel.dispatch_utilisation")
        before = hist.count
        with tracing():
            with ParallelEngine(g, workers=2, chunk_size=16) as eng:
                eng.multi_source(np.arange(g.n, dtype=np.int64))
                eng.multi_source(np.arange(g.n, dtype=np.int64))
        assert hist.count == before + 2
        assert 0.0 < hist.max <= 1.0
