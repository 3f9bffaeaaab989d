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
from repro.obs import metrics as _metrics
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

    def test_histogram(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        for v in (1.0, 3.0, 2.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == pytest.approx(6.0)
        assert (h.min, h.max) == (1.0, 3.0)
        assert h.mean == pytest.approx(2.0)
        assert h.as_dict() == {"count": 3, "sum": 6.0, "min": 1.0, "max": 3.0}

    def test_empty_histogram_dict(self):
        h = MetricsRegistry().histogram("h")
        assert h.as_dict() == {"count": 0, "sum": 0.0, "min": None, "max": None}

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("x")


class TestHistogramPercentiles:
    def test_single_sample_answers_every_p(self):
        h = MetricsRegistry().histogram("h")
        h.observe(7.5)
        for p in (0, 25, 50, 99, 100):
            assert h.percentile(p) == 7.5

    def test_all_equal_samples(self):
        h = MetricsRegistry().histogram("h")
        for _ in range(10):
            h.observe(3.0)
        assert h.percentile(0) == 3.0
        assert h.percentile(50) == 3.0
        assert h.percentile(100) == 3.0

    def test_linear_interpolation(self):
        h = MetricsRegistry().histogram("h")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 4.0
        assert h.percentile(50) == pytest.approx(2.5)

    def test_empty_raises(self):
        h = MetricsRegistry().histogram("h")
        with pytest.raises(ValueError, match="no samples"):
            h.percentile(50)

    def test_out_of_range_p_raises(self):
        h = MetricsRegistry().histogram("h")
        h.observe(1.0)
        with pytest.raises(ValueError, match=r"outside \[0, 100\]"):
            h.percentile(101)
        with pytest.raises(ValueError, match=r"outside \[0, 100\]"):
            h.percentile(-0.5)

    def test_sample_retention_cap(self):
        h = MetricsRegistry().histogram("h")
        for i in range(h.MAX_SAMPLES + 50):
            h.observe(float(i))
        assert len(h.samples) == h.MAX_SAMPLES
        assert h.count == h.MAX_SAMPLES + 50  # aggregates stay exact
        assert h.max == float(h.MAX_SAMPLES + 49)

    def test_reset_clears_samples(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        h.observe(1.0)
        reg.reset()
        assert h.samples == []
        with pytest.raises(ValueError, match="no samples"):
            h.percentile(50)


class TestHistogramReservoir:
    def test_length_capped_and_aggregates_exact(self):
        h = _metrics.Histogram("cap")
        n = h.RETAIN_CAP + 500
        for i in range(n):
            h.observe(float(i))
        assert len(h.samples) == h.RETAIN_CAP
        assert h.count == n
        assert h.sum == pytest.approx(sum(range(n)))
        assert h.min == 0.0 and h.max == float(n - 1)

    def test_reservoir_sees_the_tail(self):
        """Post-cap observations must be able to enter the retained set —
        the pre-reservoir behaviour (frozen prefix) kept none of them."""
        h = _metrics.Histogram("tail")
        for i in range(h.RETAIN_CAP):
            h.observe(0.0)
        for _ in range(h.RETAIN_CAP):
            h.observe(1.0)
        assert any(s == 1.0 for s in h.samples)

    def test_deterministic_under_repro_seed(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEED", "1234")

        def run():
            h = _metrics.Histogram("det")
            for i in range(h.RETAIN_CAP + 1000):
                h.observe(float(i))
            return list(h.samples)

        assert run() == run()

    def test_seed_and_name_change_the_reservoir(self, monkeypatch):
        def run(name):
            h = _metrics.Histogram(name)
            for i in range(h.RETAIN_CAP + 1000):
                h.observe(float(i))
            return list(h.samples)

        monkeypatch.setenv("REPRO_SEED", "1")
        a = run("x")
        b = run("y")
        monkeypatch.setenv("REPRO_SEED", "2")
        c = run("x")
        assert a != b and a != c

    def test_registry_reset_rearms_reservoir(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEED", "77")
        reg = _metrics.MetricsRegistry()
        h = reg.histogram("reset-me")

        def fill():
            for i in range(h.RETAIN_CAP + 200):
                h.observe(float(i))
            return list(h.samples)

        first = fill()
        reg.reset()
        assert h.count == 0 and not h.samples
        assert fill() == first  # same seed ⇒ same reservoir after reset

    def test_max_samples_alias(self):
        assert _metrics.Histogram.MAX_SAMPLES == _metrics.Histogram.RETAIN_CAP


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
        h = reg.histogram("h")
        h.observe(4.0)
        reg.reset()
        assert c.value == 0
        assert h.count == 0 and h.as_dict()["min"] is None
        assert reg.counter("c") is c

    def test_metrics_diff(self):
        before = {"c": 3, "g": 0.5, "h": {"count": 2, "sum": 5.0, "min": 1, "max": 4}}
        after = {"c": 10, "g": 0.9, "h": {"count": 5, "sum": 9.0, "min": 1, "max": 4},
                 "new": 7}
        d = metrics_diff(before, after)
        assert d["c"] == 7          # counters subtract
        assert d["g"] == 0.9        # gauges report "after"
        assert d["h"]["count"] == 3 and d["h"]["sum"] == pytest.approx(4.0)
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
