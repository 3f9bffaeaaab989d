"""Self-contained single-file HTML run reports (``repro-bench report``).

One run, one artifact: a plain HTML file with inline CSS/SVG and a few
lines of inline JS — no network fetches, no external assets — that can be
attached to a CI job or mailed around and still render everything the
obs layer knows about a run:

1. **Phase waterfall** — the Chrome trace's wall-clock spans as
   per-track horizontal bars, read through
   :func:`repro.obs.export.load_chrome_trace`.
2. **Virtual-platform occupancy** — the simulated devices' busy
   intervals (the :data:`~repro.obs.export.VIRTUAL_PID` tracks of
   :func:`repro.obs.export.virtual_clock_events`) on their own
   virtual-seconds axis.
3. **Table-1 memory** — the measured-vs-model byte accounting
   (``a² + Σ nᵢ²`` against dense ``n²``) from :mod:`repro.obs.memory`
   gauges and the recorded model block.
4. **Counters** — the run's :mod:`repro.obs.metrics` counter diff.
5. **Ledger history** — per-phase sparklines over the run ledger with
   the :mod:`repro.obs.regress` verdict for the newest run.

Sections degrade independently: missing inputs render as an explicit
"no data" note, never an error, so a report can be built from any subset
of {trace, ledger}.  :func:`validate_report` is the smoke check
CI runs against the emitted file.
"""

from __future__ import annotations

import html as _html
import json
import zlib
from typing import TYPE_CHECKING

from .export import VIRTUAL_PID, load_chrome_trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .ledger import RunRecord

__all__ = ["REPORT_SECTIONS", "build_report", "write_report", "validate_report"]

#: The mandatory sections, in render order; ``validate_report``
#: checks each ``id="section-<name>"`` anchor exists.
REPORT_SECTIONS = ("waterfall", "timeline", "memory", "counters", "history")

_PALETTE = (
    "#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#76b7b2",
    "#edc948", "#b07aa1", "#9c755f", "#bab0ac", "#ff9da7",
)

_CSS = """
body { font: 14px/1.45 system-ui, sans-serif; margin: 0; color: #1a1a2e;
       background: #fafafa; }
header { background: #1a1a2e; color: #fafafa; padding: 16px 28px; }
header h1 { margin: 0 0 4px; font-size: 20px; }
header .meta { color: #9aa0b4; font-size: 12px; }
section { background: #fff; margin: 18px 28px; padding: 14px 20px 18px;
          border: 1px solid #e2e2ea; border-radius: 6px; }
section h2 { margin: 0 0 10px; font-size: 15px; cursor: pointer; }
section h2::before { content: "\\25BE "; color: #888; }
section.folded h2::before { content: "\\25B8 "; }
section.folded > *:not(h2) { display: none; }
table { border-collapse: collapse; font-size: 13px; }
th, td { padding: 3px 12px 3px 0; text-align: right; }
th:first-child, td:first-child { text-align: left; }
th { border-bottom: 1px solid #ccc; font-weight: 600; }
.nodata { color: #888; font-style: italic; }
.note { color: #666; font-size: 12px; }
.ok { color: #2a7d2a; font-weight: 600; }
.bad { color: #c0392b; font-weight: 600; }
svg { display: block; }
svg text { font: 10px system-ui, sans-serif; fill: #444; }
.spark { display: inline-block; vertical-align: middle; }
"""

_JS = """
document.querySelectorAll('section h2').forEach(function (h) {
  h.addEventListener('click', function () {
    h.parentElement.classList.toggle('folded');
  });
});
"""


def _esc(x) -> str:
    return _html.escape(str(x))


def _color(name: str) -> str:
    # crc32, not hash(): str hashes are salted per process, and the same
    # run must render the same document.
    return _PALETTE[zlib.crc32(name.encode()) % len(_PALETTE)]


def _fmt_bytes(b) -> str:
    from .memory import format_bytes

    return format_bytes(float(b))


def _nodata(msg: str) -> str:
    return f'<p class="nodata">{_esc(msg)}</p>'


# --------------------------------------------------------------------- #
# Section 1 — phase waterfall from the Chrome trace (wall clock)
# --------------------------------------------------------------------- #

_WATERFALL_MAX_EVENTS = 1200


def _waterfall_svg(trace: dict) -> str:
    col = load_chrome_trace(trace)
    evs = col.spans
    if not evs:
        return _nodata("trace carries no wall-clock spans")
    truncated = 0
    if len(evs) > _WATERFALL_MAX_EVENTS:
        truncated = len(evs) - _WATERFALL_MAX_EVENTS
        evs = sorted(evs, key=lambda s: -s.dur_ns)[:_WATERFALL_MAX_EVENTS]
    t0 = min(s.start_ns for s in evs)
    t1 = max(s.start_ns + s.dur_ns for s in evs)
    span = max(t1 - t0, 1)
    width, left, rowh = 960.0, 190.0, 16.0
    # Group by (pid, tid); within a track, nesting depth = open intervals.
    tracks: dict[tuple[int, int], list] = {}
    for s in sorted(evs, key=lambda s: (s.pid, s.tid, s.start_ns, -s.dur_ns)):
        tracks.setdefault((s.pid, s.tid), []).append(s)
    rects: list[str] = []
    texts: list[str] = []
    y = 14.0
    for key, track_evs in tracks.items():
        label = f"pid {key[0]} · {col.track_names.get(key, f'tid {key[1]}')}"
        open_ends: list[int] = []
        max_depth = 0
        base_y = y
        for s in track_evs:
            while open_ends and s.start_ns >= open_ends[-1]:
                open_ends.pop()
            depth = len(open_ends)
            open_ends.append(s.start_ns + s.dur_ns)
            max_depth = max(max_depth, depth)
            x = left + (s.start_ns - t0) / span * (width - left - 10)
            w = max(s.dur_ns / span * (width - left - 10), 1.0)
            ry = base_y + depth * rowh
            rects.append(
                f'<rect x="{x:.1f}" y="{ry:.1f}" width="{w:.1f}" height="{rowh - 3:.1f}"'
                f' fill="{_color(s.name)}" rx="1.5">'
                f"<title>{_esc(s.name)} — {s.dur_ns / 1e6:.3f} ms"
                f" (ts {s.start_ns / 1e6:.3f} ms)</title></rect>"
            )
            if w > 60:
                texts.append(
                    f'<text x="{x + 3:.1f}" y="{ry + rowh - 6:.1f}"'
                    f' fill="#fff">{_esc(s.name[:int(w / 6)])}</text>'
                )
        texts.append(
            f'<text x="4" y="{base_y + rowh - 6:.1f}">{_esc(label[:30])}</text>'
        )
        y = base_y + (max_depth + 1) * rowh + 8
    height = y + 6
    note = (
        f'<p class="note">longest {_WATERFALL_MAX_EVENTS} of '
        f"{truncated + _WATERFALL_MAX_EVENTS} spans shown</p>"
        if truncated
        else ""
    )
    return (
        f'<svg width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">'
        + "".join(rects) + "".join(texts)
        + f"</svg><p class=\"note\">traced window: {span / 1e6:.3f} ms; "
        f"{len(tracks)} track(s)</p>" + note
    )


# --------------------------------------------------------------------- #
# Section 2 — virtual-platform occupancy from the trace (virtual time)
# --------------------------------------------------------------------- #


def _timeline_svg(trace: dict) -> str:
    evs = [ev for ev in trace.get("traceEvents", []) if isinstance(ev, dict)]
    virt = [ev for ev in evs if ev.get("ph") == "X" and ev.get("pid") == VIRTUAL_PID]
    if not virt:
        return _nodata(
            "trace carries no virtual-platform tracks (profile apsp or both records them)"
        )
    labels = {
        ev.get("tid"): str((ev.get("args") or {}).get("name", ""))
        for ev in evs
        if ev.get("ph") == "M" and ev.get("name") == "thread_name"
        and ev.get("pid") == VIRTUAL_PID
    }
    width, left = 960.0, 190.0
    plot_w = width - left - 10
    vspan = max(max(e["ts"] + e["dur"] for e in virt), 1e-9)
    rows, y = [], 4.0
    for tid in sorted({e["tid"] for e in virt}):
        tevs = [e for e in virt if e["tid"] == tid]
        busy = sum(e["dur"] for e in tevs)
        marks = "".join(
            f'<rect x="{left + e["ts"] / vspan * plot_w:.1f}" y="6" '
            f'width="{max(e["dur"] / vspan * plot_w, 0.8):.1f}" height="10" '
            f'fill="{_color(str(e.get("name")))}">'
            f"<title>{_esc(e.get('name'))} — {e['dur'] / 1e6:.6f} vs</title></rect>"
            for e in tevs
        )
        rows.append(
            f'<g transform="translate(0 {y:.1f})">'
            f'<text x="4" y="14">{_esc(labels.get(tid, f"virtual tid {tid}")[:26])} '
            f"({100.0 * busy / vspan:.0f}% busy)</text>"
            f'<line x1="{left}" y1="16" x2="{width - 10}" y2="16" '
            'stroke="#eee"/>' + marks + "</g>"
        )
        y += 24.0
    return (
        f'<svg width="{width:.0f}" height="{y + 8:.0f}" '
        f'viewBox="0 0 {width:.0f} {y + 8:.0f}">' + "".join(rows)
        + f"</svg><p class=\"note\">virtual makespan: {vspan / 1e6:.6f} "
        "virtual seconds</p>"
    )


# --------------------------------------------------------------------- #
# Section 3 — Table-1 memory block
# --------------------------------------------------------------------- #

_MEMORY_ROWS = (
    ("component tables (Σ nᵢ²)", "component_bytes", "memory.apsp.component_table_bytes"),
    ("articulation table (a²)", "ap_bytes", "memory.apsp.ap_table_bytes"),
    ("oracle total (a² + Σ nᵢ²)", "oracle_bytes", "memory.apsp.oracle_bytes"),
    ("reduced oracle (ear)", "reduced_oracle_bytes", "memory.apsp.reduced_table_bytes"),
    ("dense matrix (n²)", "dense_bytes", "memory.apsp.dense_bytes"),
)


def _memory_section(record: "RunRecord | None") -> str:
    if record is None or not record.memory:
        return _nodata("no ledgered memory record (run repro-bench profile with --ledger)")
    gauges = record.memory.get("gauges") or {}
    model = record.memory.get("table1_model") or {}
    parts: list[str] = []
    if model or any(g in gauges for _, _, g in _MEMORY_ROWS):
        rows = []
        for label, model_key, gauge_key in _MEMORY_ROWS:
            mv = model.get(model_key)
            gv = gauges.get(gauge_key)
            rows.append(
                f"<tr><td>{_esc(label)}</td>"
                f"<td>{_fmt_bytes(mv) if mv is not None else '-'}</td>"
                f"<td>{_fmt_bytes(gv) if gv else '-'}</td></tr>"
            )
        parts.append(
            "<table><tr><th>distance storage</th><th>model</th>"
            "<th>measured</th></tr>" + "".join(rows) + "</table>"
        )
        oracle = model.get("oracle_bytes")
        dense = model.get("dense_bytes")
        if oracle and dense:
            rel = "&lt;" if oracle < dense else "&ge;"
            cls = "ok" if oracle < dense else "bad"
            parts.append(
                f'<p>shape: <span class="{cls}">a² + Σ nᵢ² = '
                f"{_fmt_bytes(oracle)} {rel} n² = {_fmt_bytes(dense)}</span> "
                f"(saving {dense / oracle:.2f}x)</p>"
            )
    spans = record.memory.get("spans") or {}
    if spans:
        rows = "".join(
            f"<tr><td>{_esc(name)}</td><td>{row.get('count', '-')}</td>"
            f"<td>{_fmt_bytes(row.get('delta_bytes', 0))}</td>"
            f"<td>{_fmt_bytes(row.get('peak_bytes', 0))}</td>"
            f"<td>{'-' if row.get('rss_peak_bytes') is None else _fmt_bytes(row['rss_peak_bytes'])}</td></tr>"
            for name, row in sorted(spans.items())
        )
        parts.append(
            "<table><tr><th>memory span</th><th>count</th><th>alloc Δ</th>"
            "<th>alloc peak</th><th>rss peak</th></tr>" + rows + "</table>"
        )
    return "".join(parts) or _nodata("memory record is empty")


# --------------------------------------------------------------------- #
# Section 4 — counters
# --------------------------------------------------------------------- #


def _counters_section(record: "RunRecord | None") -> str:
    if record is None or not record.counters:
        return _nodata("no ledgered counters for this run")
    rows = "".join(
        f"<tr><td>{_esc(name)}</td>"
        f"<td>{val:.4f}</td></tr>" if isinstance(val, float) else
        f"<tr><td>{_esc(name)}</td><td>{_esc(val)}</td></tr>"
        for name, val in sorted(record.counters.items())
    )
    return "<table><tr><th>metric</th><th>value</th></tr>" + rows + "</table>"


# --------------------------------------------------------------------- #
# Section 5 — ledger-history sparklines + regression verdict
# --------------------------------------------------------------------- #


def _sparkline(values: list[float], width: float = 140, height: float = 26) -> str:
    if not values:
        return ""
    lo, hi = min(values), max(values)
    spread = (hi - lo) or 1.0
    n = len(values)
    pts = " ".join(
        f"{2 + i * (width - 4) / max(n - 1, 1):.1f},"
        f"{height - 3 - (v - lo) / spread * (height - 6):.1f}"
        for i, v in enumerate(values)
    )
    last_x = 2 + (n - 1) * (width - 4) / max(n - 1, 1)
    last_y = height - 3 - (values[-1] - lo) / spread * (height - 6)
    return (
        f'<svg class="spark" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">'
        f'<polyline points="{pts}" fill="none" stroke="#4e79a7" stroke-width="1.2"/>'
        f'<circle cx="{last_x:.1f}" cy="{last_y:.1f}" r="2" fill="#e15759"/></svg>'
    )


def _history_section(history: "list[RunRecord] | None") -> str:
    if not history:
        return _nodata("no ledger history (pass --ledger / set REPRO_LEDGER)")
    series: dict[str, list[float]] = {}
    for rec in history:
        for name, secs in rec.phases.items():
            series.setdefault(name, []).append(secs)
    rows = []
    for name, vals in sorted(series.items()):
        rows.append(
            f"<tr><td>{_esc(name)}</td><td>{len(vals)}</td>"
            f"<td>{vals[-1]:.6f}</td>"
            f"<td>{_sparkline(vals)}</td></tr>"
        )
    parts = [
        f'<p class="note">{len(history)} ledgered run(s)</p>',
        "<table><tr><th>phase</th><th>runs</th><th>latest (s)</th>"
        "<th>history</th></tr>" + "".join(rows) + "</table>",
    ]
    if len(history) >= 2:
        from .regress import compare

        baseline: dict[str, list[float]] = {}
        for rec in history[:-1]:
            for name, secs in rec.phases.items():
                baseline.setdefault(name, []).append(secs)
        rep = compare(baseline, history[-1].phases)
        if rep.ok:
            parts.append(
                f'<p class="ok">regression gate: no confirmed regressions across '
                f"{rep.compared} compared phase(s)</p>"
            )
        else:
            worst = max(rep.regressions, key=lambda v: v.ratio or 0.0)
            parts.append(
                f'<p class="bad">regression gate: CONFIRMED REGRESSION in '
                f"{len(rep.regressions)} phase(s); worst {_esc(worst.name)} at "
                f"{worst.ratio:.2f}x baseline</p>"
            )
    else:
        parts.append(
            '<p class="note">regression verdict needs at least two ledgered runs</p>'
        )
    return "".join(parts)


# --------------------------------------------------------------------- #
# Assembly
# --------------------------------------------------------------------- #


def build_report(
    *,
    title: str = "repro run report",
    trace: dict | None = None,
    record: "RunRecord | None" = None,
    history: "list[RunRecord] | None" = None,
) -> str:
    """Assemble the single-file HTML report (:data:`REPORT_SECTIONS`).

    Every input is optional; absent data renders as an explicit note so
    the section anchors (and :func:`validate_report`) always hold.
    """
    meta_bits = []
    if record is not None:
        if record.git_sha:
            meta_bits.append(f"git {record.git_sha[:12]}")
        if record.host.get("hostname"):
            meta_bits.append(str(record.host["hostname"]))
        wl = record.meta.get("workload")
        ds = record.meta.get("dataset")
        if wl or ds:
            meta_bits.append(f"{wl or '?'} on {ds or '?'}")
    if trace:
        meta_bits.append(f"{len(trace.get('traceEvents', []))} trace events")

    no_trace = _nodata(
        "no Chrome trace (run repro-bench profile --trace-out, or pass --trace)"
    )
    sections = {
        "waterfall": (
            "Phase waterfall (Chrome trace, wall clock)",
            _waterfall_svg(trace) if trace else no_trace,
        ),
        "timeline": (
            "Virtual platform occupancy (simulated clocks)",
            _timeline_svg(trace) if trace else no_trace,
        ),
        "memory": ("Table-1 memory: measured vs model", _memory_section(record)),
        "counters": ("Counters", _counters_section(record)),
        "history": ("Ledger history & regression verdict", _history_section(history)),
    }
    body = "".join(
        f'<section id="section-{name}"><h2>{_esc(heading)}</h2>{content}</section>'
        for name, (heading, content) in sections.items()
    )
    return (
        "<!doctype html>\n<html><head><meta charset=\"utf-8\">"
        f"<title>{_esc(title)}</title><style>{_CSS}</style></head><body>"
        f"<header><h1>{_esc(title)}</h1>"
        f'<p class="meta">{_esc(" · ".join(meta_bits) or "no run metadata")}</p>'
        f"</header>{body}<script>{_JS}</script></body></html>\n"
    )


def write_report(path, **kwargs) -> str:
    """Build and write the report; returns the path."""
    doc = build_report(**kwargs)
    with open(path, "w") as fh:
        fh.write(doc)
    return str(path)


def validate_report(doc: str) -> list[str]:
    """Smoke-check an emitted report; returns problems (empty = valid).

    Verifies the document parses as HTML, carries every
    :data:`REPORT_SECTIONS` anchor, and references no external network
    resources — the
    "self-contained single file" contract CI gates on.
    """
    problems: list[str] = []
    if not doc.lstrip().lower().startswith("<!doctype html"):
        problems.append("missing <!doctype html> preamble")
    if "</html>" not in doc:
        problems.append("missing closing </html>")
    for name in REPORT_SECTIONS:
        if f'id="section-{name}"' not in doc:
            problems.append(f"missing section anchor: section-{name}")
    lowered = doc.lower()
    for needle in ('src="http', "src='http", 'href="http', "href='http"):
        if needle in lowered:
            problems.append("report references an external network resource")
            break
    from html.parser import HTMLParser

    class _Checker(HTMLParser):
        def __init__(self) -> None:
            super().__init__()
            self.stack: list[str] = []
            self.balanced = True

        VOID = {"meta", "br", "hr", "img", "link", "input", "circle",
                "rect", "line", "polyline", "path"}

        def handle_starttag(self, tag, attrs):
            if tag not in self.VOID:
                self.stack.append(tag)

        def handle_endtag(self, tag):
            if tag in self.VOID:
                return
            if not self.stack or self.stack.pop() != tag:
                self.balanced = False

    checker = _Checker()
    try:
        checker.feed(doc)
        checker.close()
    except Exception as exc:  # pragma: no cover - parser never raises on str
        problems.append(f"HTML parse error: {exc}")
    else:
        if not checker.balanced or checker.stack:
            problems.append("unbalanced HTML tags")
    try:
        json.dumps(doc)  # embeddable in CI annotations
    except (TypeError, ValueError):  # pragma: no cover - str always dumps
        problems.append("report is not JSON-embeddable text")
    return problems
