"""repro.obs.regress + the ``repro-bench regress``/``profile`` CLI gates.

Pins the ISSUE's acceptance behaviours directly:

* ``repro-bench regress`` exits 0 on an unchanged rerun of the same
  phases and exits nonzero when fed a synthetic run with a phase slowed
  beyond tolerance;
* ``repro-bench profile apsp`` prints measured distance-table bytes with
  the Table 1 shape ``a² + Σ nᵢ² < n²`` on a multi-BCC corpus graph.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs.ledger import Ledger, RunRecord
from repro.obs.regress import (
    compare,
    diff_chrome_traces,
    extract_phases,
    mad,
    measure_profile_phases,
    median,
    phase_totals,
)


class TestRobustStats:
    def test_median(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([1.0, 2.0, 3.0, 4.0]) == 2.5
        assert median([7.0]) == 7.0
        with pytest.raises(ValueError):
            median([])

    def test_mad(self):
        assert mad([]) == 0.0
        assert mad([5.0]) == 0.0
        assert mad([1.0, 1.0, 1.0]) == 0.0
        assert mad([1.0, 2.0, 3.0, 100.0]) == pytest.approx(1.0)


class TestCompare:
    def test_unchanged_candidate_is_ok(self):
        hist = {"a": [1.0, 1.01, 0.99], "b": [0.5]}
        report = compare(hist, {"a": 1.0, "b": 0.5})
        assert report.ok
        assert report.compared == 2
        assert {v.status for v in report.verdicts} == {"ok"}

    def test_slowed_phase_clears_both_bands(self):
        hist = {"a": [1.0, 1.0, 1.0]}
        report = compare(hist, {"a": 2.5}, rel_tol=0.25, mad_k=5.0)
        assert not report.ok
        (v,) = report.regressions
        assert v.name == "a"
        assert v.ratio == pytest.approx(2.5)

    def test_mad_band_widens_tolerance_for_noisy_history(self):
        # Same 1.4x candidate: quiet history flags it, noisy history does not.
        quiet = {"a": [1.0, 1.0, 1.0, 1.0, 1.0]}
        noisy = {"a": [1.0, 0.7, 1.3, 0.6, 1.4]}
        assert not compare(quiet, {"a": 1.4}, rel_tol=0.25, mad_k=5.0).ok
        assert compare(noisy, {"a": 1.4}, rel_tol=0.25, mad_k=5.0).ok

    def test_single_entry_history_uses_relative_band(self):
        hist = {"a": [1.0]}
        assert compare(hist, {"a": 1.2}, rel_tol=0.25).ok
        assert not compare(hist, {"a": 1.3}, rel_tol=0.25).ok

    def test_noise_floor_never_flags(self):
        hist = {"a": [1e-5]}
        report = compare(hist, {"a": 9e-4}, rel_tol=0.25, min_seconds=1e-3)
        assert report.ok
        assert report.verdicts[0].status == "noise-floor"

    def test_improved_new_and_missing_statuses(self):
        hist = {"a": [1.0], "gone": [2.0]}
        report = compare(hist, {"a": 0.5, "brand": 3.0})
        by_name = {v.name: v.status for v in report.verdicts}
        assert by_name == {"a": "improved", "gone": "missing", "brand": "new"}
        assert report.ok          # new/missing never fail the gate
        assert report.compared == 1  # only "a" was judged on both sides

    def test_compared_counts_only_two_sided_phases(self):
        report = compare({"a": [1.0]}, {"a": 1.0, "b": 2.0})
        assert report.compared == 1

    def test_rejects_negative_knobs(self):
        with pytest.raises(ValueError):
            compare({"a": [1.0]}, {"a": 1.0}, rel_tol=-0.1)

    def test_render_confirmed_regression_line(self):
        hist = {"smoke.a": [1.0, 1.0], "smoke.b": [1.0]}
        report = compare(hist, {"smoke.a": 2.5, "smoke.b": 1.0})
        text = report.render()
        assert "CONFIRMED REGRESSION in 1 phase(s)" in text
        assert "smoke.a at 2.50x baseline" in text
        assert "REGRESSED" in text

    def test_render_clean_run_line(self):
        report = compare({"a": [1.0]}, {"a": 1.0})
        assert "no confirmed regressions across 1 compared phase(s)" in report.render()


class TestExtractPhases:
    def test_stamped_document(self):
        rec = RunRecord(kind="bench_smoke", phases={"smoke.a": 1.5})
        assert extract_phases(rec.to_dict()) == {"smoke.a": 1.5}

    def test_bare_numeric_dict(self):
        assert extract_phases({"a": 1, "b": 2.5}) == {"a": 1.0, "b": 2.5}

    def test_repo_committed_baseline_is_extractable(self):
        from pathlib import Path

        path = Path(__file__).resolve().parent.parent / "BENCH_BASELINE.json"
        phases = extract_phases(json.loads(path.read_text()))
        assert "smoke.repeated_sssp.cached" in phases
        assert all(v >= 0 for v in phases.values())

    def test_repo_committed_ledger_parses(self):
        from pathlib import Path

        ledger = Ledger(Path(__file__).resolve().parent.parent / "BENCH_LEDGER.jsonl")
        recs = ledger.records()
        assert [r.schema_version for r in recs] == [1, 1, 2, 2, 2]
        assert ledger.skipped == 0
        assert ledger.phase_history()

    def test_unrecognizable_document_raises(self):
        with pytest.raises(ValueError, match="no recognizable"):
            extract_phases({"unrelated": {"stuff": "here"}})
        with pytest.raises(ValueError, match="expected an object"):
            extract_phases([1, 2, 3])


def _trace_doc(spans: dict[str, float]) -> dict:
    """Chrome trace with one complete event per name (dur in seconds)."""
    return {
        "traceEvents": [
            {"ph": "X", "name": k, "ts": 0, "dur": v * 1e6, "pid": 1, "tid": 1}
            for k, v in spans.items()
        ]
    }


class TestTraceDiff:
    def test_biggest_mover_first(self):
        a = _trace_doc({"dijkstra": 1.0, "reduce": 0.5})
        b = _trace_doc({"dijkstra": 3.0, "reduce": 0.6, "assemble": 0.1})
        rows = diff_chrome_traces(a, b)
        assert rows[0]["name"] == "dijkstra"
        assert rows[0]["delta_s"] == pytest.approx(2.0)
        assert rows[0]["ratio"] == pytest.approx(3.0)
        by_name = {r["name"]: r for r in rows}
        assert by_name["assemble"]["a_s"] == 0.0
        assert by_name["assemble"]["ratio"] == float("inf")

    def test_ignores_non_complete_events(self):
        a = {"traceEvents": [{"ph": "M", "name": "meta"}]}
        assert diff_chrome_traces(a, a) == []

    def test_virtual_device_time_stays_out_of_wall_rows(self):
        from repro.obs.export import VIRTUAL_PID

        a = _trace_doc({"postprocess": 0.5})
        b = _trace_doc({"postprocess": 0.5})
        b["traceEvents"] += [
            {"ph": "X", "name": name, "ts": 0, "dur": 30.0, "pid": VIRTUAL_PID,
             "tid": 0, "cat": "virtual"}
            for name in ("postprocess", "dijkstra")
        ]
        rows = diff_chrome_traces(a, b)
        assert [r["name"] for r in rows] == ["postprocess"]
        assert rows[0]["b_s"] == rows[0]["a_s"] == 0.5


class TestMeasureProfilePhases:
    def test_apsp_phase_names_and_positivity(self):
        phases = measure_profile_phases(
            workload="apsp", dataset="nopoly", scale=0.008, repeats=1
        )
        assert set(phases) == {"apsp.preprocess", "apsp.process", "apsp.postprocess"}
        assert all(v > 0 for v in phases.values())

    def test_rejects_zero_repeats(self):
        with pytest.raises(ValueError, match="repeats"):
            measure_profile_phases(repeats=0)


@pytest.fixture()
def no_env_ledger(monkeypatch):
    monkeypatch.delenv("REPRO_LEDGER", raising=False)


def _baseline_file(tmp_path, phases, name="baseline.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"schema_version": 1, "phases": phases}))
    return path


PHASES = {"smoke.a": 0.8, "smoke.b": 0.2}


class TestRegressCLI:
    def test_unchanged_rerun_exits_zero(self, tmp_path, capsys, no_env_ledger):
        """ISSUE acceptance: same-commit rerun passes the gate."""
        base = _baseline_file(tmp_path, PHASES)
        cand = tmp_path / "candidate.json"
        cand.write_text(json.dumps(PHASES))
        rc = main(
            ["regress", "--baseline", str(base), "--candidate", str(cand)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "no confirmed regressions across 2 compared phase(s)" in out

    def test_slowed_run_exits_nonzero(self, tmp_path, capsys, no_env_ledger):
        """ISSUE acceptance: a phase slowed beyond tolerance fails the gate."""
        base = _baseline_file(tmp_path, PHASES)
        cand = tmp_path / "candidate.json"
        cand.write_text(json.dumps({**PHASES, "smoke.a": PHASES["smoke.a"] * 3}))
        with pytest.raises(SystemExit) as exc:
            main(["regress", "--baseline", str(base), "--candidate", str(cand)])
        assert exc.value.code == 1
        out = capsys.readouterr().out
        assert "CONFIRMED REGRESSION in 1 phase(s)" in out
        assert "smoke.a at 3.00x baseline" in out

    def test_no_baseline_data_exits_two(self, tmp_path, capsys, no_env_ledger):
        cand = tmp_path / "candidate.json"
        cand.write_text(json.dumps(PHASES))
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "regress",
                    "--baseline", str(tmp_path / "absent.json"),
                    "--candidate", str(cand),
                ]
            )
        assert exc.value.code == 2
        assert "no baseline data" in capsys.readouterr().out

    def test_disjoint_phases_exit_two(self, tmp_path, capsys, no_env_ledger):
        base = _baseline_file(tmp_path, {"old.phase": 1.0})
        cand = tmp_path / "candidate.json"
        cand.write_text(json.dumps({"new.phase": 1.0}))
        with pytest.raises(SystemExit) as exc:
            main(["regress", "--baseline", str(base), "--candidate", str(cand)])
        assert exc.value.code == 2
        assert "no comparable phases" in capsys.readouterr().out

    def test_ledger_history_feeds_noise_model(self, tmp_path, capsys, no_env_ledger):
        # Noisy ledger history widens the MAD band enough to pass a 1.4x
        # candidate that a single-point baseline would flag.
        ledger_path = tmp_path / "ledger.jsonl"
        led = Ledger(ledger_path)
        for v in (1.0, 0.7, 1.3, 0.6, 1.4):
            led.append(RunRecord(kind="bench_smoke", phases={"smoke.a": v}))
        cand = tmp_path / "candidate.json"
        cand.write_text(json.dumps({"smoke.a": 1.4}))
        rc = main(
            [
                "regress",
                "--ledger", str(ledger_path),
                "--baseline", str(tmp_path / "absent.json"),
                "--candidate", str(cand),
            ]
        )
        assert rc == 0

    def test_record_appends_candidate_to_ledger(self, tmp_path, no_env_ledger):
        ledger_path = tmp_path / "ledger.jsonl"
        Ledger(ledger_path).append(
            RunRecord(kind="bench_smoke", phases={"smoke.a": 0.8})
        )
        cand = tmp_path / "candidate.json"
        cand.write_text(json.dumps({"smoke.a": 0.8}))
        rc = main(
            [
                "regress",
                "--ledger", str(ledger_path),
                "--baseline", str(tmp_path / "absent.json"),
                "--candidate", str(cand),
                "--record",
            ]
        )
        assert rc == 0
        recs = Ledger(ledger_path).records()
        assert [r.kind for r in recs] == ["bench_smoke", "regress"]
        assert recs[-1].phases == {"smoke.a": 0.8}

    def test_trace_diff_mode(self, tmp_path, capsys, no_env_ledger):
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        pa.write_text(json.dumps(_trace_doc({"dijkstra": 1.0})))
        pb.write_text(json.dumps(_trace_doc({"dijkstra": 2.0})))
        rc = main(["regress", "--trace-a", str(pa), "--trace-b", str(pb)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Chrome-trace diff" in out
        assert "dijkstra" in out

    def test_trace_diff_requires_both_files(self, tmp_path, no_env_ledger):
        with pytest.raises(SystemExit, match="both required"):
            main(["regress", "--trace-a", "only-one.json"])


class TestProfileCLI:
    def test_profile_apsp_prints_measured_table1(self, capsys, no_env_ledger):
        """ISSUE acceptance: profile apsp reports reduced-vs-dense bytes."""
        rc = main(
            ["profile", "apsp", "--datasets", "ca-AstroPh", "--scale", "0.012"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table 1 (measured) — ca-AstroPh" in out
        assert "oracle total (a² + Σ nᵢ²)" in out
        assert "dense matrix (n²)" in out
        assert "per-phase memory" in out
        # The headline shape claim, printed with the strict inequality on
        # this multi-BCC graph.
        assert "shape: a² + Σ nᵢ² = " in out
        shape_line = next(l for l in out.splitlines() if l.startswith("shape:"))
        assert " < n² = " in shape_line

    def test_profile_appends_ledger_record(self, tmp_path, capsys, no_env_ledger):
        ledger_path = tmp_path / "ledger.jsonl"
        rc = main(
            [
                "profile", "apsp",
                "--datasets", "nopoly",
                "--scale", "0.008",
                "--ledger", str(ledger_path),
            ]
        )
        assert rc == 0
        rec = Ledger(ledger_path).latest("profile")
        assert rec is not None
        assert rec.meta["dataset"] == "nopoly"
        assert "apsp.process" in rec.phases
        assert "memory.apsp.oracle_bytes" in rec.memory["gauges"]
        assert rec.memory["spans"]  # tracemalloc spans were captured
        assert "appended profile record" in capsys.readouterr().out


def test_phase_totals_counts_only_roots():
    from repro.obs.trace import span, tracing

    with tracing() as tr:
        with span("outer", cat="t"):
            with span("inner", cat="t"):
                pass
        with span("outer", cat="t"):
            pass
    totals = phase_totals(tr)
    assert set(totals) == {"t.outer"}
    assert totals["t.outer"] > 0
