"""repro.obs.memory: phase memory spans, Table-1 byte accounting, pipeline gauges.

The Table-1 shape test: on every multi-BCC corpus stand-in, the oracle's
``a² + Σ nᵢ²`` distance storage (modelled by
:func:`repro.graph.stats.table1_row`) must undercut the dense ``n²``
matrix, and the measured bytes of an actually-built table set must equal
the model.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro import datasets
from repro.graph import grid_graph, table1_row
from repro.obs import metrics as obs_metrics
from repro.obs.memory import (
    MemoryProfile,
    format_bytes,
    measured_component_bytes,
    memory_profiling,
    memory_profiling_enabled,
    peak_rss_bytes,
)
from repro.obs.trace import phase

TINY = 0.012


class TestMemorySpan:
    """Memory spans are recorded by ``obs.trace.phase`` as ``<cat>.<name>``."""

    def test_disabled_is_shared_null_singleton(self):
        assert not memory_profiling_enabled()
        a = phase("x", "mem")
        b = phase("y", "mem")
        assert a is b  # no allocation on the disabled path
        with a:
            pass

    def test_tracemalloc_alone_does_not_arm(self):
        # A caller measuring its own tracemalloc peak must not see phases
        # allocate into it.
        tracemalloc.start()
        try:
            assert phase("x", "mem") is phase("y", "mem")
        finally:
            tracemalloc.stop()

    def test_span_records_delta_and_peak(self):
        with memory_profiling() as mp:
            with phase("alloc", "mem"):
                block = bytearray(512 * 1024)
            del block
        spans = mp.by_name()["mem.alloc"]
        assert len(spans) == 1
        assert spans[0].peak >= 512 * 1024
        assert spans[0].delta >= 0  # block still alive at span exit? freed after

    def test_nested_child_peak_propagates_to_parent(self):
        with memory_profiling() as mp:
            with phase("outer", "mem"):
                with phase("inner", "mem"):
                    block = bytearray(1024 * 1024)
                    del block
                # parent allocates little after the child
        spans = {sp.name: sp for sp in mp.spans}
        assert spans["mem.inner"].peak >= 1024 * 1024
        # outer's peak must cover the child's peak despite peak resets
        assert spans["mem.outer"].peak >= spans["mem.inner"].peak

    def test_span_recorded_when_phase_raises(self):
        with memory_profiling() as mp:
            with pytest.raises(ValueError):
                with phase("boom", "mem"):
                    block = bytearray(256 * 1024)
                    raise ValueError("x")
        del block
        (sp,) = mp.by_name()["mem.boom"]
        assert sp.peak >= 256 * 1024

    def test_profiling_restores_prior_state(self):
        assert not tracemalloc.is_tracing()
        with memory_profiling():
            assert tracemalloc.is_tracing()
            assert memory_profiling_enabled()
        assert not tracemalloc.is_tracing()
        assert not memory_profiling_enabled()

    def test_nested_profiling_blocks(self):
        with memory_profiling() as outer:
            with memory_profiling() as inner:
                with phase("in-inner", "mem"):
                    pass
            with phase("in-outer", "mem"):
                pass
        assert [s.name for s in inner.spans] == ["mem.in-inner"]
        assert [s.name for s in outer.spans] == ["mem.in-outer"]

    def test_as_dict_aggregates(self):
        with memory_profiling() as mp:
            for _ in range(3):
                with phase("process", "mem"):
                    pass
        agg = mp.as_dict()
        assert agg["mem.process"]["count"] == 3
        assert set(agg["mem.process"]) == {
            "count", "delta_bytes", "peak_bytes", "rss_peak_bytes"
        }

    def test_peak_rss_bytes_plausible_on_linux(self):
        rss = peak_rss_bytes()
        if rss is None:
            pytest.skip("no resource module on this platform")
        # A Python process with numpy/scipy loaded sits well above 10 MiB.
        assert rss > 10 * 1024 * 1024


class TestFormatBytes:
    def test_units(self):
        assert format_bytes(512) == "512 B"
        assert format_bytes(2048) == "2.00 KiB"
        assert "MiB" in format_bytes(3 * 1024 * 1024)
        assert "GiB" in format_bytes(5 * 1024**3)


class TestTable1Bytes:
    def test_shape_on_every_multi_bcc_corpus_graph(self):
        """Acceptance: a² + Σ nᵢ² < n² wherever the graph decomposes."""
        seen_multi = 0
        for spec in datasets.TABLE1:
            g = spec.generate(TINY)
            tb = table1_row(g, spec.name).storage_bytes(8)
            assert tb["dense_bytes"] == g.n * g.n * 8
            if tb["n_bcc"] > 1:
                seen_multi += 1
                assert tb["oracle_bytes"] < tb["dense_bytes"], spec.name
                assert tb["reduced_oracle_bytes"] <= tb["oracle_bytes"] + 1, spec.name
        assert seen_multi >= 5  # the corpus genuinely exercises the claim

    def test_single_bcc_graph_model(self):
        g = grid_graph(4, 4)
        tb = table1_row(g, "grid").storage_bytes(4)
        assert tb["n_bcc"] == 1
        assert tb["n_articulation"] == 0
        assert tb["ap_bytes"] == 0
        assert tb["component_bytes"] == 16 * 16 * 4
        assert tb["oracle_bytes"] == tb["dense_bytes"]

    def test_measured_matches_model_on_built_tables(self):
        from repro.apsp.composition import build_component_tables

        g = datasets.load("ca-AstroPh", TINY)
        tb = table1_row(g, "ca-AstroPh").storage_bytes(8)
        ct = build_component_tables(g)
        meas = measured_component_bytes(ct)
        assert meas["component_table_bytes"] == tb["component_bytes"]
        assert meas["ap_table_bytes"] == tb["ap_bytes"]
        assert meas["total_bytes"] == tb["oracle_bytes"]


class TestPipelineGauges:
    def test_apsp_runner_publishes_table_gauges(self):
        from repro.hetero.apsp_runner import apsp_with_trace

        g = datasets.load("ca-AstroPh", TINY)
        apsp_with_trace(g)
        snap = obs_metrics.snapshot("memory.apsp.")
        tb = table1_row(g).storage_bytes(8)
        assert snap["memory.apsp.oracle_bytes"] == tb["oracle_bytes"]
        assert snap["memory.apsp.dense_bytes"] == tb["dense_bytes"]
        assert snap["memory.apsp.component_table_bytes"] == tb["component_bytes"]
        assert snap["memory.apsp.ap_table_bytes"] == tb["ap_bytes"]
        # ear reduction must never cost more storage than the full oracle
        assert 0 < snap["memory.apsp.reduced_table_bytes"] <= tb["oracle_bytes"]
        assert snap["memory.apsp.oracle_bytes"] < snap["memory.apsp.dense_bytes"]

    def test_mcb_runner_publishes_store_gauges(self):
        from repro.hetero.mcb_runner import mcb_with_trace

        g = datasets.load("nopoly", TINY)
        mcb_with_trace(g)
        snap = obs_metrics.snapshot("memory.mcb.")
        assert snap["memory.mcb.witness_bytes"] > 0
        assert snap["memory.mcb.candidate_store_bytes"] > 0

    def test_engine_cache_bytes_gauge_and_info(self):
        from repro.sssp import engine

        cache = engine.adjacency_cache()
        cache.clear()
        assert cache.info().bytes == 0
        g = grid_graph(5, 5)
        engine.multi_source(g, np.arange(4))
        info = cache.info()
        assert info.bytes > 0
        assert info.bytes == cache.memory_bytes()
        assert obs_metrics.snapshot("memory.engine.")[
            "memory.engine.adj_cache_bytes"
        ] == info.bytes
        cache.clear()
        assert cache.memory_bytes() == 0

    def test_candidate_store_memory_bytes(self):
        from repro.mcb.candidate_store import CandidateStore

        store = CandidateStore(100, block_size=16)
        total = store.memory_bytes()
        # 100 bool alive flags over ranks + 7 int64 per-block live counts
        assert total == 100 * 1 + 7 * 8
