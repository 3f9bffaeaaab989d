"""repro.obs.metrics: instruments, registry semantics, and pipeline wiring.

The wiring tests assert the ISSUE's acceptance criterion directly: after
an engine or MCB run, ``snapshot()`` shows nonzero adjacency-cache and
witness-update counters.  They measure via snapshot *diffs*, because the
process-wide registry accumulates across the whole test session.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import grid_graph
from repro.obs import metrics_diff, reset_metrics, snapshot
from repro.obs.metrics import MetricsRegistry


class TestInstruments:
    def test_counter(self):
        reg = MetricsRegistry()
        c = reg.counter("c")
        c.inc()
        c.inc(5)
        assert c.value == 6
        assert reg.counter("c") is c  # same instrument on re-lookup

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="negative"):
            reg.counter("c").inc(-1)

    def test_gauge(self):
        reg = MetricsRegistry()
        g = reg.gauge("g")
        g.set(3)
        g.set(0.5)
        assert g.value == 0.5

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("x")


class TestRegistry:
    def test_snapshot_sorted_and_prefixed(self):
        reg = MetricsRegistry()
        reg.counter("b.two").inc(2)
        reg.counter("a.one").inc(1)
        reg.gauge("b.gauge").set(0.25)
        snap = reg.snapshot()
        assert list(snap) == ["a.one", "b.gauge", "b.two"]
        assert reg.snapshot("b.") == {"b.gauge": 0.25, "b.two": 2}

    def test_reset_zeroes_but_keeps_instruments(self):
        reg = MetricsRegistry()
        c = reg.counter("c")
        c.inc(9)
        g = reg.gauge("g")
        g.set(4.0)
        reg.reset()
        assert c.value == 0 and isinstance(c.value, int)
        assert g.value == 0.0 and isinstance(g.value, float)
        assert reg.counter("c") is c

    def test_metrics_diff(self):
        before = {"c": 3, "g": 0.5}
        after = {"c": 10, "g": 0.9, "new": 7}
        d = metrics_diff(before, after)
        assert d["c"] == 7          # counters subtract
        assert d["g"] == 0.9        # gauges report "after"
        assert d["new"] == 7        # absent-before counts from zero

    def test_metrics_diff_decreasing_gauge(self):
        # Gauges are last-write-wins: a *decrease* between snapshots must
        # surface as the (smaller) after value, never a negative delta.
        before = {"mem.bytes": 1024.0, "c": 5}
        after = {"mem.bytes": 256.0, "c": 5}
        d = metrics_diff(before, after)
        assert d["mem.bytes"] == 256.0
        assert d["c"] == 0

    def test_metrics_diff_gauge_dropping_to_zero(self):
        d = metrics_diff({"g": 7.5}, {"g": 0.0})
        assert d["g"] == 0.0

    def test_module_reset_helper(self):
        from repro.obs import counter

        counter("test.reset_helper").inc(3)
        reset_metrics()
        assert snapshot()["test.reset_helper"] == 0


class TestEngineWiring:
    def test_cache_hit_miss_and_chunk_counters(self):
        from repro.sssp import engine

        g = grid_graph(8, 8)
        engine.adjacency_cache().clear()
        before = snapshot()
        engine.multi_source(g, np.arange(16, dtype=np.int64))  # miss + build
        engine.multi_source(g, np.arange(16, dtype=np.int64))  # hit
        d = metrics_diff(before, snapshot())
        assert d["engine.adj_cache.misses"] == 1
        assert d["engine.adj_cache.hits"] == 1
        assert d["engine.chunks_dispatched"] >= 2
        assert d["engine.sources_dispatched"] == 32

    def test_counters_match_cache_info(self):
        from repro.sssp import engine

        info = engine.adjacency_cache().info()
        snap = snapshot("engine.adj_cache.")
        # Counters survive cache.clear(); they can only run ahead of the
        # live CacheInfo, never behind.
        assert snap["engine.adj_cache.hits"] >= info.hits
        assert snap["engine.adj_cache.misses"] >= info.misses


class TestMCBWiring:
    def test_mcb_run_reports_nonzero_counters(self):
        """ISSUE acceptance: adjacency-cache + witness counters after MCB."""
        from repro.hetero.mcb_runner import mcb_with_trace
        from repro.sssp import engine

        g = grid_graph(5, 6)
        engine.adjacency_cache().clear()
        before = snapshot()
        cycles, _ = mcb_with_trace(g)
        assert cycles
        d = metrics_diff(before, snapshot())
        assert d.get("engine.adj_cache.misses", 0) + d.get(
            "engine.adj_cache.hits", 0
        ) > 0
        assert d.get("mcb.witness_xors", 0) > 0
        assert d.get("mcb.orthogonality_checks", 0) > 0
        assert d.get("mcb.candidates_scanned", 0) > 0

    def test_depina_counters(self):
        from repro.mcb.depina import depina_mcb

        before = snapshot()
        depina_mcb(grid_graph(4, 4))
        d = metrics_diff(before, snapshot())
        assert d.get("mcb.depina.searches", 0) > 0


class TestQAWiring:
    def test_invariant_check_counter(self, monkeypatch):
        from repro.decomposition import reduce_graph
        from repro.qa import invariants

        g = grid_graph(4, 4)
        monkeypatch.delenv("REPRO_CHECK_INVARIANTS", raising=False)
        red = reduce_graph(g)  # knob off: no check fires in here
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        before = snapshot()
        invariants.maybe_check_reduction(red)
        d = metrics_diff(before, snapshot())
        assert d.get("qa.invariant_checks", 0) == 1
