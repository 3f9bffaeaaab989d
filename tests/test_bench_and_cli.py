"""Benchmark harness entry points and the repro-bench CLI (tiny scale)."""

import numpy as np
import pytest

from repro.bench import (
    Fig2Row,
    ear_speedup_by_impl,
    format_kv,
    format_table,
    geometric_mean,
    mteps,
    ratio_note,
    run_fig2,
    run_fig3,
    run_fig5,
    run_fig6,
    run_phase_breakdown,
    run_table1,
    run_table2,
    speedup,
)
from repro.cli import main

TINY = 0.012
FAST = ["nopoly", "as-22july06"]


class TestMetrics:
    def test_mteps_definition(self):
        assert mteps(1000, 5000, 2.0) == pytest.approx(2.5)

    def test_mteps_zero_time_raises(self):
        with pytest.raises(ValueError, match="positive time"):
            mteps(10, 10, 0.0)
        with pytest.raises(ValueError, match="positive time"):
            mteps(10, 10, -1.0)

    def test_speedup(self):
        assert speedup(10.0, 2.0) == 5.0

    def test_speedup_zero_time_raises(self):
        with pytest.raises(ValueError, match="positive time"):
            speedup(10.0, 0.0)

    def test_fig2row_speedup_zero_time_raises(self):
        row = Fig2Row(
            name="x", kind="general", n=1, m=1,
            t_ours=0.0, t_baseline=1.0, baseline="banerjee",
        )
        with pytest.raises(ValueError, match="positive time"):
            row.speedup

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert np.isnan(geometric_mean([]))
        assert geometric_mean([2.0, float("inf")]) == pytest.approx(2.0)

    def test_geomean(self):
        from repro.bench import geomean

        assert geomean([1.0, 4.0]) == pytest.approx(2.0)
        assert geomean([8.0]) == pytest.approx(8.0)

    def test_geomean_empty_raises(self):
        from repro.bench import geomean

        with pytest.raises(ValueError, match="at least one value"):
            geomean([])
        with pytest.raises(ValueError, match="at least one value"):
            geomean(iter(()))  # generators too, not just lists

    def test_geomean_rejects_nonpositive_and_nonfinite(self):
        from repro.bench import geomean

        with pytest.raises(ValueError, match="positive finite"):
            geomean([1.0, 0.0])
        with pytest.raises(ValueError, match="positive finite"):
            geomean([1.0, -2.0])
        with pytest.raises(ValueError, match="positive finite"):
            geomean([1.0, float("inf")])

    def test_geometric_mean_is_the_lenient_wrapper(self):
        # The legacy helper filters junk and returns NaN instead of raising
        # — the behaviour summary printers rely on.
        assert geometric_mean([0.0, float("nan")]) is not None
        assert np.isnan(geometric_mean([0.0]))


class TestReporting:
    def test_format_table(self):
        out = format_table(["a", "bb"], [(1, 2.5), (3, 4.0)], title="T")
        assert "T" in out and "bb" in out and "2.5" in out

    def test_format_table_empty(self):
        out = format_table(["x"], [])
        assert "x" in out

    def test_format_table_empty_separator_matches_header_width(self):
        # With no body rows, the rule must still be as wide as the header.
        out = format_table(["wide-header", "x"], [])
        lines = out.splitlines()
        header = next(l for l in lines if "wide-header" in l)
        rules = [l for l in lines if l and set(l) <= {"-", "+"}]
        assert rules and all(len(r) == len(header) for r in rules)

    def test_format_table_ragged_row_raises_with_index(self):
        with pytest.raises(ValueError, match=r"row 1 has 3 cell\(s\), expected 2"):
            format_table(["a", "b"], [(1, 2), (3, 4, 5)])

    def test_format_table_short_row_raises(self):
        with pytest.raises(ValueError, match=r"row 0 has 1 cell\(s\), expected 3"):
            format_table(["a", "b", "c"], [(1,)])

    def test_format_kv(self):
        out = format_kv({"alpha": 1.5, "b": "x"})
        assert "alpha" in out and "1.5" in out

    def test_ratio_note(self):
        out = ratio_note("t", 2.0, 1.0)
        assert "0.50" in out


class TestHarness:
    def test_table1(self):
        rows = run_table1(scale=TINY, names=FAST)
        assert len(rows) == 2
        for r in rows:
            assert r.ours_mb <= r.max_mb + 1e-12

    def test_fig2_and_fig3(self):
        rows = run_fig2(scale=TINY, names=FAST + ["Planar_1"])
        assert {r.kind for r in rows} == {"general", "planar"}
        assert all(r.t_ours > 0 and r.t_baseline > 0 for r in rows)
        m = run_fig3(rows)
        assert all(d["mteps_ours"] > 0 for d in m)

    def test_fig2_legs_alternate_from_a_cold_cache(self):
        from repro.bench.harness import LEG_REPEATS, _fastest_alternating
        from repro.graph import cycle_graph
        from repro.sssp.engine import adjacency_cache, sssp

        g = cycle_graph(5)
        order = []

        def leg(k):
            def call():
                order.append((k, adjacency_cache().info().size))
                sssp(g, 0)  # fills the cache for the next call to find
                return k
            return call

        outs, best = _fastest_alternating([leg(0), leg(1)])
        assert outs == [0, 1] and all(0 < t < 1 for t in best)
        firsts = [order[2 * i][0] for i in range(LEG_REPEATS)]
        assert firsts == [i % 2 for i in range(LEG_REPEATS)]
        assert all(size == 0 for _, size in order)

    @pytest.mark.parametrize("name, baseline", [
        ("nopoly", "bcc_apsp"), ("Planar_1", "partition_apsp"),
    ])
    def test_fig2_checks_the_full_matrix(self, monkeypatch, name, baseline):
        from repro.bench import harness

        real = getattr(harness, baseline)

        def corrupted(g, **kwargs):
            out = real(g, **kwargs)
            out[g.n - 1, g.n - 2] += 1e-3  # one corrupted entry
            return out

        monkeypatch.setattr(harness, baseline, corrupted)
        with pytest.raises(AssertionError, match="APSP mismatch"):
            run_fig2(scale=TINY, names=[name])

    def test_table2_legs_alternate_from_a_cold_cache(self, monkeypatch):
        from repro.bench import harness
        from repro.sssp.engine import adjacency_cache

        real = harness.mcb_with_trace
        calls = []

        def recorded(g, use_ear=True, **kwargs):
            calls.append((use_ear, adjacency_cache().info().size))
            return real(g, use_ear=use_ear, **kwargs)  # fills the cache

        monkeypatch.setattr(harness, "mcb_with_trace", recorded)
        (row,) = run_table2(scale=TINY, names=["nopoly"])
        assert len(calls) == 2 * harness.LEG_REPEATS
        firsts = [calls[2 * i][0] for i in range(harness.LEG_REPEATS)]
        assert firsts == [i % 2 == 0 for i in range(harness.LEG_REPEATS)]
        assert all(size == 0 for _, size in calls)
        assert 0 < row.wall_with_ear < 1 and 0 < row.wall_without_ear < 1

    def test_table2_fig5_fig6(self):
        rows = run_table2(scale=TINY, names=FAST)
        assert all(r.basis_weight > 0 for r in rows)
        for r in rows:
            for p, (w, wo) in r.seconds.items():
                assert w > 0 and wo > 0
                assert wo >= w * 0.9  # ear never hurts much
        sp = run_fig5(rows)
        assert set(sp) == {"multicore", "gpu", "cpu+gpu"}
        ear = ear_speedup_by_impl(rows)
        assert ear["sequential"] >= 1.0
        fig6 = run_fig6(rows)
        assert len(fig6) == 2 and "cpu+gpu" in fig6[0]

    def test_phase_breakdown_sums_to_one(self):
        frac = run_phase_breakdown("as-22july06", scale=TINY)
        assert sum(frac.values()) == pytest.approx(1.0)
        assert frac["labels"] > frac["scan"] or frac["labels"] > 0.3


class TestCLI:
    def test_table1(self, capsys):
        assert main(["table1", "--scale", str(TINY), "--datasets", "nopoly"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_fig2(self, capsys):
        assert main(["fig2", "--scale", str(TINY), "--datasets", "nopoly", "--mteps"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out and "MTEPS" in out

    def test_table2(self, capsys):
        assert main(["table2", "--scale", str(TINY), "--datasets", "nopoly", "--fig6"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out and "Figure 6" in out

    def test_phases(self, capsys):
        assert main(["phases", "--scale", str(TINY), "--datasets", "as-22july06"]) == 0
        assert "labels" in capsys.readouterr().out
