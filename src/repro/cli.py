"""``repro-bench`` — regenerate the paper's tables and figures from the CLI.

Examples
--------
::

    repro-bench table1
    repro-bench fig2 --scale 0.03
    repro-bench table2 --datasets nopoly as-22july06
    repro-bench all --scale 0.02
    repro-bench profile apsp --trace-out trace.json
    repro-bench profile apsp --trace-out trace.json --ledger RUN_LEDGER.jsonl
    repro-bench profile mcb --datasets nopoly --scale 0.02
    repro-bench regress --baseline BENCH_BASELINE.json --ledger BENCH_LEDGER.jsonl
    repro-bench regress --trace-a before.json --trace-b after.json
    repro-bench report --ledger RUN_LEDGER.jsonl --out run-report.html
    repro-bench critpath --trace trace.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bench import expected
from .bench.harness import (
    ear_speedup_by_impl,
    run_fig2,
    run_fig3,
    run_fig5,
    run_fig6,
    run_phase_breakdown,
    run_table1,
    run_table2,
)
from .bench.metrics import geomean
from .bench.reporting import format_kv, format_table, ratio_note

__all__ = ["main"]


def _cmd_table1(args) -> None:
    from . import datasets

    specs = {spec.name: spec for spec in datasets.TABLE1}
    body = []
    for r in run_table1(scale=args.scale, names=args.datasets):
        spec, b = specs[r.name], r.storage_bytes(4)
        body.append((
            r.name,
            "planar" if spec.planar else "general",
            r.n,
            r.m,
            r.n_bcc,
            r.largest_bcc_edge_pct,
            r.nodes_removed_pct,
            spec.removed_pct,
            b["oracle_bytes"] / 2**20,
            b["reduced_oracle_bytes"] / 2**20,
            b["dense_bytes"] / 2**20,
        ))
    print(
        format_table(
            ["graph", "kind", "|V|", "|E|", "#BCC", "largest%", "removed%",
             "paper removed%", "ours MB", "reduced MB", "max MB"],
            body,
            title=f"Table 1 — dataset structure and APSP memory model "
                  f"(scale={args.scale or 'default'})",
        )
    )


def _cmd_fig2(args) -> None:
    rows = run_fig2(scale=args.scale, names=args.datasets)
    print(
        format_table(
            ["graph", "kind", "baseline", "t_ours(s)", "t_base(s)", "speedup", "removed%"],
            [
                (r.name, r.kind, r.baseline, r.t_ours, r.t_baseline, r.speedup, r.nodes_removed_pct)
                for r in rows
            ],
            title="Figure 2 — APSP: Our Approach vs baselines",
        )
    )
    gen = [r.speedup for r in rows if r.kind == "general"]
    pla = [r.speedup for r in rows if r.kind == "planar"]
    print()
    # geomean() raises on empty input, so only summarize kinds that are
    # actually present in the (possibly --datasets restricted) row set.
    if gen:
        print(ratio_note("avg speedup vs Banerjee (general)", expected.FIG2_AVG_SPEEDUP["vs_banerjee_general"], geomean(gen)))
    if pla:
        print(ratio_note("avg speedup vs Djidjev (planar)", expected.FIG2_AVG_SPEEDUP["vs_djidjev_planar"], geomean(pla)))
    if args.mteps:
        print()
        mrows = run_fig3(rows)
        print(
            format_table(
                ["graph", "kind", "MTEPS ours", "MTEPS baseline"],
                [(d["name"], d["kind"], d["mteps_ours"], d["mteps_baseline"]) for d in mrows],
                title="Figure 3 — MTEPS",
            )
        )


def _cmd_table2(args) -> None:
    rows = run_table2(scale=args.scale, names=args.datasets)
    platforms = list(rows[0].seconds)
    body = [(r.name, r.f, *(x for ws in r.seconds.values() for x in ws)) for r in rows]
    print(
        format_table(
            ["graph", "f", *(f"{p} {w}" for p in platforms for w in ("w", "w/o"))],
            body,
            title="Table 2 — MCB virtual seconds (w = with ear decomposition)",
        )
    )
    print()
    sp = run_fig5(rows)
    for name, val in sp.items():
        print(ratio_note(f"Fig5 {name} speedup over sequential", expected.FIG5_AVG_SPEEDUP[name], val))
    print()
    for name, val in ear_speedup_by_impl(rows).items():
        print(ratio_note(f"ear speedup on {name}", expected.EAR_SPEEDUP_BY_IMPL[name], val))
    if args.fig6:
        print()
        print(
            format_table(
                ["graph", *platforms],
                [tuple(d.values()) for d in run_fig6(rows)],
                title="Figure 6 — absolute virtual seconds (with ear)",
            )
        )


def _cmd_phases(args) -> None:
    name = (args.datasets or ["cond_mat_2003"])[0]
    frac = run_phase_breakdown(name, scale=args.scale)
    print(format_kv(frac, title=f"MCB phase shares on {name} (model)"))
    print()
    for k, v in expected.PHASE_FRACTIONS.items():
        print(ratio_note(f"{k} share", v, frac.get(k, 0.0)))


def _resolve_ledger(args):
    """The run ledger to append to: ``--ledger`` flag or ``REPRO_LEDGER``."""
    from .obs.ledger import Ledger, default_ledger_path

    path = Path(args.ledger) if getattr(args, "ledger", None) else default_ledger_path()
    return Ledger(path) if path is not None else None


def _cmd_qa(args) -> None:
    import time as _time

    from .obs import metrics_diff, snapshot
    from .qa.differential import run_suite
    from .sssp.engine import adjacency_cache

    before = snapshot()
    t0 = _time.perf_counter()
    reports = run_suite(
        count=args.qa_count,
        seed=args.qa_seed,
        artifacts_dir=args.qa_artifacts,
    )
    qa_seconds = _time.perf_counter() - t0
    failed = False
    for rep in reports.values():
        print(rep.summary())
        print()
        failed |= not rep.ok
    info = adjacency_cache().info()
    total = info.hits + info.misses
    rate = 100.0 * info.hits / total if total else 0.0
    print(
        f"adjacency cache: {info.hits} hits / {info.misses} misses "
        f"({rate:.1f}% hit rate, {info.size}/{info.maxsize} entries)"
    )
    counters = snapshot("engine.")
    counters.update(snapshot("qa."))
    print("counters: " + ", ".join(f"{k}={v}" for k, v in counters.items()))
    ledger = _resolve_ledger(args)
    if ledger is not None:
        from .obs.ledger import RunRecord

        ledger.append(
            RunRecord.new(
                kind="qa",
                phases={"qa.suite": qa_seconds},
                counters=metrics_diff(before, snapshot()),
                meta={
                    "count": args.qa_count,
                    "seed": args.qa_seed,
                    "ok": not failed,
                },
            )
        )
        print(f"ledger: appended qa record to {ledger.path}")
    if failed:
        print("conformance FAILED — disagreeing graphs serialized above")
        raise SystemExit(1)
    print("conformance OK")


def _print_table1_measured(model: dict, mem_gauges: dict) -> None:
    """The measured-vs-model Table 1 block of ``profile apsp``.

    Prints distance-table bytes for the per-BCC oracle (``a² + Σ nᵢ²``),
    the ear-reduced oracle, and the dense ``n²`` matrix — the model
    (:meth:`repro.graph.stats.GraphStats.storage_bytes`) alongside the
    bytes actually allocated this run.
    """
    from .obs.memory import format_bytes
    from .obs.report import MEMORY_ROWS

    print(
        format_table(
            ["distance storage", "model bytes", "measured bytes", "human"],
            [
                (label, model[key], int(mem_gauges.get(gauge, 0.0)),
                 format_bytes(mem_gauges.get(gauge, 0.0) or model[key]))
                for label, key, gauge in MEMORY_ROWS
            ],
            title=(
                f"Table 1 (measured) — {model['name']}: n={model['n']}, "
                f"#BCC={model['n_bcc']}, a={model['n_articulation']}"
            ),
        )
    )
    oracle, dense = model["oracle_bytes"], model["dense_bytes"]
    rel = "<" if oracle < dense else ">="
    saving = dense / oracle if oracle else float("inf")
    print(
        f"shape: a² + Σ nᵢ² = {oracle} {rel} n² = {dense} "
        f"(saving {saving:.2f}x; reduced oracle "
        f"{dense / max(model['reduced_oracle_bytes'], 1):.2f}x)"
    )


def _cmd_profile(args) -> None:
    """``repro-bench profile <workload>`` — trace one pipeline end to end.

    Runs the named workload under a fresh trace collector *and* a memory
    profile (ambient ``REPRO_TRACE`` is not required), writes a Chrome
    ``trace_event`` JSON when ``--trace-out`` is given (with the
    simulated platform's virtual device clocks as extra tracks), and
    prints the per-track self-time table (:func:`repro.obs.summary`), the
    instruments the run moved, the per-phase memory table and — for the
    APSP workload — the measured Table 1 byte accounting.  With a ledger
    configured (``--ledger`` or ``REPRO_LEDGER``) the run is appended as
    a schema-versioned record with the full counter diff that also points
    at the trace file, so ``repro-bench report`` can reassemble the run
    later.
    """
    from . import datasets
    from .obs import (
        format_bytes,
        memory_profiling,
        phase_totals,
        snapshot,
        summary,
        tracing,
    )
    from .obs.metrics import metrics_diff, moved_metrics

    workload = args.workload or "apsp"
    name = (args.datasets or ["OPF_3754"])[0]
    g = datasets.load(name, args.scale)
    before = snapshot()
    clocks: dict | None = None
    with tracing() as tr, memory_profiling() as mp:
        if workload in ("apsp", "both"):
            from .hetero.apsp_runner import apsp_with_trace
            from .hetero.trace import Platform, simulate_trace

            _, work_trace = apsp_with_trace(g)
            # Replay on the simulated CPU+GPU platform with per-interval
            # clock accounting: the virtual device tracks ride along in
            # the Chrome trace (and the report's occupancy timeline).
            platform = Platform.heterogeneous()
            simulate_trace(work_trace, platform, record_samples=True)
            clocks = {d.name: d.clock for d in platform.devices}
        if workload in ("mcb", "both"):
            from .hetero.mcb_runner import mcb_with_trace

            mcb_with_trace(g)
    after = snapshot()
    counters = metrics_diff(before, after)
    if args.trace_out:
        tr.write_chrome(args.trace_out, clocks=clocks)
        print(f"wrote Chrome trace to {args.trace_out} "
              f"({len(tr)} spans; open in chrome://tracing or ui.perfetto.dev)")
        print()
    print(f"profile of {workload!r} on {name} (n={g.n}, m={g.m})")
    print()
    print(summary(tr, moved_metrics(before, after)))
    print()
    mem = mp.as_dict()
    if mem:
        print(
            format_table(
                ["memory span", "count", "alloc Δ", "alloc peak", "rss peak"],
                [
                    (
                        phase,
                        row["count"],
                        format_bytes(row["delta_bytes"]),
                        format_bytes(row["peak_bytes"]),
                        "-" if row["rss_peak_bytes"] is None
                        else format_bytes(row["rss_peak_bytes"]),
                    )
                    for phase, row in mem.items()
                ],
                title="per-phase memory (tracemalloc; RSS is a process high-water)",
            )
        )
        print()
    memory_block = {"spans": mem, "gauges": snapshot("memory.")}
    if workload in ("apsp", "both"):
        from .graph.stats import table1_row

        # 8-byte entries: the float64 tables the gauges measured.
        memory_block["table1_model"] = table1_row(g, name).storage_bytes(8)
        _print_table1_measured(memory_block["table1_model"], memory_block["gauges"])
    ledger = _resolve_ledger(args)
    if ledger is not None:
        from .obs.ledger import RunRecord

        # trace_path is a free-form meta key: old readers ignore it, the
        # report command uses it to locate this run's Chrome trace from the
        # ledger alone.
        meta = {"workload": workload, "dataset": name, "scale": args.scale}
        if args.trace_out:
            meta["trace_path"] = str(Path(args.trace_out).resolve())
        ledger.append(
            RunRecord.new(
                kind="profile",
                phases=phase_totals(tr),
                counters=counters,
                memory=memory_block,
                meta=meta,
            )
        )
        print()
        print(f"ledger: appended profile record to {ledger.path}")


def _cmd_regress(args) -> None:
    """``repro-bench regress`` — the noise-aware benchmark gate.

    Compares a candidate run (``--candidate`` record, or a fresh
    median-of-``--repeats`` measurement of the profile workload) against
    the per-phase history assembled from the run ledger and/or a stamped
    ``BENCH_BASELINE.json``.  Exits 0 when no phase clears both the
    relative-tolerance and MAD noise bands, 1 on a confirmed regression,
    2 when there is no baseline data to compare against.  With
    ``--trace-a/--trace-b`` it instead diffs two Chrome trace files and
    reports which span moved.
    """
    from .obs.ledger import Ledger, RunRecord
    from .obs.regress import (
        compare,
        diff_chrome_traces,
        extract_phases,
        measure_profile_phases,
    )

    if args.trace_a or args.trace_b:
        if not (args.trace_a and args.trace_b):
            raise SystemExit("regress: --trace-a and --trace-b are both required")
        with open(args.trace_a) as fh:
            doc_a = json.load(fh)
        with open(args.trace_b) as fh:
            doc_b = json.load(fh)
        rows = diff_chrome_traces(doc_a, doc_b)
        print(
            format_table(
                ["span", "A (s)", "B (s)", "delta (s)", "B/A"],
                [
                    (r["name"], r["a_s"], r["b_s"], r["delta_s"], r["ratio"])
                    for r in rows
                ],
                title=f"Chrome-trace diff: {args.trace_a} -> {args.trace_b}",
            )
        )
        return

    history: dict[str, list[float]] = {}
    ledger = None
    if args.ledger:
        ledger = Ledger(args.ledger)
        history = ledger.phase_history(limit=args.history)
        if ledger.skipped:
            print(f"ledger: skipped {ledger.skipped} unreadable record(s)")
    baseline_path = Path(args.baseline) if args.baseline else None
    if baseline_path is not None and baseline_path.exists():
        with open(baseline_path) as fh:
            doc = json.load(fh)
        for phase, secs in extract_phases(doc).items():
            history.setdefault(phase, []).append(secs)
    if not history:
        print(
            "regress: no baseline data (no readable --ledger records and no "
            "--baseline file) — nothing to gate against"
        )
        raise SystemExit(2)

    if args.candidate:
        with open(args.candidate) as fh:
            candidate = extract_phases(json.load(fh))
        cand_desc = args.candidate
    else:
        workload = args.workload or "apsp"
        name = (args.datasets or ["OPF_3754"])[0]
        candidate = measure_profile_phases(
            workload=workload, dataset=name, scale=args.scale,
            repeats=args.repeats,
        )
        cand_desc = f"median of {args.repeats} fresh {workload!r} run(s) on {name}"
    print(f"candidate: {cand_desc}")
    print()
    report = compare(
        history,
        candidate,
        rel_tol=args.rel_tol,
        mad_k=args.mad_k,
        min_seconds=args.min_seconds,
    )
    print(report.render())
    if report.compared == 0:
        print("regress: baseline and candidate share no comparable phases")
        raise SystemExit(2)
    if args.record and ledger is not None:
        ledger.append(RunRecord.new(kind="regress", phases=candidate))
        print(f"ledger: appended candidate record to {ledger.path}")
    if not report.ok:
        raise SystemExit(1)


def _ledgered_run(args):
    """``(ledger, profile history, record, trace_path)`` for ``report`` and
    ``critpath``: the ``--ledger`` (else ``REPRO_LEDGER``) file's newest
    profile record (else its newest record), and ``--trace``, else that
    record's ``trace_path``.  The first three are None without a ledger."""
    from .obs.ledger import Ledger, default_ledger_path

    ledger = history = record = None
    ledger_path = Path(args.ledger) if args.ledger else default_ledger_path()
    if ledger_path is not None and ledger_path.exists():
        ledger = Ledger(ledger_path)
        history = ledger.records(kind="profile") or None
        record = history[-1] if history else ledger.latest()
    trace_path = args.trace
    if trace_path is None and record is not None:
        trace_path = record.meta.get("trace_path")
    return ledger, history, record, trace_path


def _cmd_report(args) -> None:
    """``repro-bench report`` — self-contained single-file HTML run report.

    Assembles the report sections from whatever inputs exist: the
    Chrome trace (``--trace``) for the wall-clock waterfall and the
    virtual-platform occupancy, and the run ledger (``--ledger`` /
    ``REPRO_LEDGER``) for counters, memory, history, and the regression
    verdict.  When a ledgered profile record carries ``trace_path`` meta
    (written by ``profile`` runs), that trace is used unless overridden.
    """
    from .obs.report import validate_report, write_report

    ledger, history, record, trace_path = _ledgered_run(args)
    if ledger is not None and ledger.skipped:
        print(f"ledger: skipped {ledger.skipped} unreadable record(s)")

    trace = None
    if trace_path and Path(trace_path).exists():
        with open(trace_path) as fh:
            trace = json.load(fh)

    title = "repro run report"
    if record is not None:
        wl = record.meta.get("workload")
        ds = record.meta.get("dataset")
        if wl or ds:
            title = f"repro run report — {wl or '?'} on {ds or '?'}"
    out = args.out or "run-report.html"
    write_report(
        out,
        title=title,
        trace=trace,
        record=record,
        history=history,
    )
    with open(out) as fh:
        problems = validate_report(fh.read())
    if problems:
        for p in problems:
            print(f"report INVALID: {p}")
        raise SystemExit(1)
    srcs = [
        f"trace={trace_path}" if trace is not None else None,
        f"ledger={ledger.path}" if record is not None else None,
    ]
    print(f"wrote report to {out} ({', '.join(s for s in srcs if s) or 'no inputs'})")


def _cmd_critpath(args) -> None:
    """``repro-bench critpath`` — where a recorded run's time went.

    Reads a recorded Chrome trace (``--trace``, or the newest ledgered
    profile record's ``trace_path``) through
    :func:`repro.obs.export.load_chrome_trace` and prints one header
    line — the traced window (first span start to last span end), the
    time root spans cover, and the untraced gap — followed by the same
    per-track self-time table ``repro-bench profile`` prints.  For a
    single-threaded run the window is its end-to-end time.  Exits 2 when
    the trace carries no spans.
    """
    from .obs.export import load_chrome_trace, summary, traced_window

    trace_path = _ledgered_run(args)[3]
    if not trace_path or not Path(trace_path).exists():
        raise SystemExit(
            "critpath: no Chrome trace (pass --trace, or run "
            "repro-bench profile --trace-out with a ledger configured)"
        )
    with open(trace_path) as fh:
        tr = load_chrome_trace(json.load(fh))
    if not len(tr):
        print(f"critpath: {trace_path} carries no spans")
        raise SystemExit(2)
    window, covered = traced_window(tr)
    print(
        f"critical path: {window / 1e9:.6f} s traced window over {len(tr)} "
        f"span(s); root spans cover {covered / 1e9:.6f} s, untraced gap "
        f"{(window - covered) / 1e9:.6f} s"
    )
    print()
    print(summary(tr))


def _cmd_all(args) -> None:
    for fn in (_cmd_table1, _cmd_fig2, _cmd_table2, _cmd_phases):
        fn(args)
        print("\n" + "=" * 72 + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate the tables/figures of the ear-decomposition paper.",
    )
    parser.add_argument(
        "command",
        choices=[
            "table1", "fig2", "table2", "phases", "qa",
            "profile", "regress", "report", "critpath", "all",
        ],
    )
    parser.add_argument(
        "workload",
        nargs="?",
        default=None,
        choices=["apsp", "mcb", "both"],
        help="profile/regress: which pipeline to trace (default apsp)",
    )
    parser.add_argument("--scale", type=float, default=None, help="dataset scale factor")
    parser.add_argument("--datasets", nargs="+", default=None, help="restrict to named datasets")
    parser.add_argument("--mteps", action="store_true", help="also print Figure 3 (fig2)")
    parser.add_argument("--fig6", action="store_true", help="also print Figure 6 (table2)")
    parser.add_argument("--qa-count", type=int, default=200, help="qa: corpus size")
    parser.add_argument("--qa-seed", type=int, default=0, help="qa: corpus seed")
    parser.add_argument(
        "--qa-artifacts",
        default=None,
        help="qa: directory for disagreeing-graph repro files (default: REPRO_QA_ARTIFACTS)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        help="profile: path for the Chrome trace_event JSON",
    )
    parser.add_argument(
        "--trace",
        default=None,
        help="report/critpath: Chrome trace JSON to read "
             "(default: the ledgered run's trace_path)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="report: output HTML path (default run-report.html)",
    )
    parser.add_argument(
        "--ledger",
        default=None,
        help="path of the append-only JSONL run ledger "
             "(default: REPRO_LEDGER; unset = no ledger writes)",
    )
    parser.add_argument(
        "--baseline",
        default="BENCH_BASELINE.json",
        help="regress: stamped BENCH_BASELINE.json to gate against",
    )
    parser.add_argument(
        "--candidate",
        default=None,
        help="regress: candidate run record / baseline JSON "
             "(default: measure a fresh candidate now)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="regress: repeats for the median-of-repeats fresh candidate",
    )
    parser.add_argument(
        "--history",
        type=int,
        default=20,
        help="regress: newest ledger records to build the noise model from",
    )
    parser.add_argument(
        "--rel-tol",
        type=float,
        default=0.25,
        help="regress: relative slowdown tolerance per phase",
    )
    parser.add_argument(
        "--mad-k",
        type=float,
        default=5.0,
        help="regress: MAD-band multiplier (noise model width)",
    )
    parser.add_argument(
        "--min-seconds",
        type=float,
        default=1e-3,
        help="regress: absolute noise floor below which phases never flag",
    )
    parser.add_argument(
        "--record",
        action="store_true",
        help="regress: append the judged candidate to the ledger",
    )
    parser.add_argument(
        "--trace-a",
        default=None,
        help="regress: first Chrome trace for the span-level differ",
    )
    parser.add_argument(
        "--trace-b",
        default=None,
        help="regress: second Chrome trace for the span-level differ",
    )
    args = parser.parse_args(argv)
    {
        "table1": _cmd_table1,
        "fig2": _cmd_fig2,
        "table2": _cmd_table2,
        "phases": _cmd_phases,
        "qa": _cmd_qa,
        "profile": _cmd_profile,
        "regress": _cmd_regress,
        "report": _cmd_report,
        "critpath": _cmd_critpath,
        "all": _cmd_all,
    }[args.command](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
