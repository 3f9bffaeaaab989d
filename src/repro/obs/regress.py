"""Noise-aware regression gate over the run ledger and bench baselines.

Benchmark times on shared CI hosts are noisy; a naive "candidate slower
than baseline" comparison fires constantly.  The gate here only confirms
a regression when the candidate phase time clears **both** bands:

* a *relative* band — ``candidate > median(history) × (1 + rel_tol)``;
* a *MAD* band — ``candidate > median + mad_k × MAD(history)`` (median
  absolute deviation; with a single-sample history MAD is 0 and the
  relative band alone decides).

Phases below an absolute noise floor (``min_seconds``) are never flagged:
sub-millisecond timings are scheduler lottery, not signal.  Every verdict
carries per-phase attribution — the terminal report says *which phase*
moved and by how much, and :func:`diff_chrome_traces` answers the same
question for two Chrome ``trace_event`` files span-name by span-name.

Inputs are deliberately duck-typed: a baseline can be a ledger history
(``{phase: [seconds, ...]}``), a single :class:`~repro.obs.ledger.RunRecord`
dict, or a legacy ``BENCH_BASELINE.json`` document (see
:func:`extract_phases`).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "median",
    "mad",
    "PhaseVerdict",
    "RegressionReport",
    "compare",
    "extract_phases",
    "diff_chrome_traces",
    "measure_profile_phases",
    "phase_totals",
]

#: Phases faster than this (both sides) are noise-floor exempt.
DEFAULT_MIN_SECONDS = 1e-3
DEFAULT_REL_TOL = 0.25
DEFAULT_MAD_K = 5.0


def median(values: list[float]) -> float:
    vals = sorted(values)
    if not vals:
        raise ValueError("median of empty sequence")
    k = len(vals) // 2
    if len(vals) % 2:
        return float(vals[k])
    return 0.5 * (vals[k - 1] + vals[k])


def mad(values: list[float]) -> float:
    """Median absolute deviation — a robust spread estimate (0 for n <= 1)."""
    if len(values) <= 1:
        return 0.0
    med = median(values)
    return median([abs(v - med) for v in values])


@dataclass(frozen=True)
class PhaseVerdict:
    """The gate's decision for one phase."""

    name: str
    baseline_median: float | None
    baseline_mad: float
    candidate: float | None
    threshold: float | None
    status: str  # "ok" | "regressed" | "improved" | "new" | "missing" | "noise-floor"

    @property
    def ratio(self) -> float | None:
        if self.baseline_median and self.candidate is not None:
            return self.candidate / self.baseline_median
        return None


@dataclass
class RegressionReport:
    """All phase verdicts plus the knobs that produced them."""

    verdicts: list[PhaseVerdict]
    rel_tol: float
    mad_k: float
    min_seconds: float

    @property
    def regressions(self) -> list[PhaseVerdict]:
        return [v for v in self.verdicts if v.status == "regressed"]

    @property
    def compared(self) -> int:
        return sum(
            1 for v in self.verdicts if v.status in ("ok", "regressed", "improved")
        )

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        """Terminal report: one line per phase, slowest offenders first."""
        from ..bench.reporting import format_table

        def key(v: PhaseVerdict):
            r = v.ratio
            return -(r if r is not None else 0.0)

        rows = []
        for v in sorted(self.verdicts, key=key):
            rows.append(
                (
                    v.name,
                    "-" if v.baseline_median is None else f"{v.baseline_median:.6f}",
                    f"{v.baseline_mad:.6f}",
                    "-" if v.candidate is None else f"{v.candidate:.6f}",
                    "-" if v.ratio is None else f"{v.ratio:.2f}x",
                    v.status.upper() if v.status == "regressed" else v.status,
                )
            )
        table = format_table(
            ["phase", "base med (s)", "base MAD", "candidate (s)", "ratio", "verdict"],
            rows,
            title=(
                f"regression gate (rel_tol={self.rel_tol:g}, "
                f"mad_k={self.mad_k:g}, floor={self.min_seconds:g}s)"
            ),
        )
        lines = [table, ""]
        if self.regressions:
            worst = max(
                self.regressions, key=lambda v: (v.ratio or 0.0)
            )
            lines.append(
                f"CONFIRMED REGRESSION in {len(self.regressions)} phase(s); "
                f"worst: {worst.name} at {worst.ratio:.2f}x baseline "
                f"(threshold {worst.threshold:.6f}s)"
            )
        else:
            lines.append(
                f"no confirmed regressions across {self.compared} compared phase(s)"
            )
        return "\n".join(lines)


def compare(
    baseline: dict[str, list[float]],
    candidate: dict[str, float],
    rel_tol: float = DEFAULT_REL_TOL,
    mad_k: float = DEFAULT_MAD_K,
    min_seconds: float = DEFAULT_MIN_SECONDS,
) -> RegressionReport:
    """Judge a candidate run against per-phase baseline history.

    ``baseline`` maps phase name to a *list* of historical seconds (one
    entry is fine — the MAD band then degenerates to the relative band).
    Phases present on only one side are reported (``new`` / ``missing``)
    but never fail the gate: a renamed phase should be visible, not fatal.
    """
    if rel_tol < 0 or mad_k < 0:
        raise ValueError("rel_tol and mad_k must be non-negative")
    verdicts: list[PhaseVerdict] = []
    for name in sorted(set(baseline) | set(candidate)):
        hist = [float(v) for v in baseline.get(name, [])]
        cand = candidate.get(name)
        if not hist:
            verdicts.append(
                PhaseVerdict(name, None, 0.0, float(cand), None, "new")
            )
            continue
        base_med = median(hist)
        base_mad = mad(hist)
        threshold = max(base_med * (1.0 + rel_tol), base_med + mad_k * base_mad)
        if cand is None:
            verdicts.append(
                PhaseVerdict(name, base_med, base_mad, None, threshold, "missing")
            )
            continue
        cand = float(cand)
        if base_med < min_seconds and cand < min_seconds:
            status = "noise-floor"
        elif cand > threshold:
            status = "regressed"
        elif cand * (1.0 + rel_tol) < base_med:
            status = "improved"
        else:
            status = "ok"
        verdicts.append(
            PhaseVerdict(name, base_med, base_mad, cand, threshold, status)
        )
    return RegressionReport(
        verdicts=verdicts,
        rel_tol=rel_tol,
        mad_k=mad_k,
        min_seconds=min_seconds,
    )


def extract_phases(doc: dict) -> dict[str, float]:
    """Pull a ``{phase: seconds}`` map out of any supported document shape.

    Accepts, in order of preference: a document with a ``phases`` dict (a
    :class:`~repro.obs.ledger.RunRecord` or a stamped
    ``BENCH_BASELINE.json``), a bare phases dict (every value numeric), or
    a legacy pre-stamp ``BENCH_BASELINE.json`` (timing keys are harvested
    from its known sections).
    """
    if not isinstance(doc, dict):
        raise ValueError(f"expected an object, got {type(doc).__name__}")
    phases = doc.get("phases")
    if isinstance(phases, dict) and phases:
        return {str(k): float(v) for k, v in phases.items()}
    if doc and all(
        isinstance(v, (int, float)) and not isinstance(v, bool)
        for v in doc.values()
    ):
        return {str(k): float(v) for k, v in doc.items()}
    # Legacy BENCH_BASELINE.json layout (pre schema stamp).
    out: dict[str, float] = {}
    rs = doc.get("repeated_sssp")
    if isinstance(rs, dict):
        out["smoke.repeated_sssp.uncached"] = float(rs["uncached_per_source_s"])
        out["smoke.repeated_sssp.cached"] = float(rs["cached_chunked_s"])
    pl = doc.get("parallel")
    if isinstance(pl, dict):
        out["smoke.parallel.serial"] = float(pl["serial_s"])
        out["smoke.parallel.parallel"] = float(pl["parallel_s"])
    for row in doc.get("fig2") or []:
        out[f"smoke.fig2.{row['name']}.ours"] = float(row["t_ours_s"])
        out[f"smoke.fig2.{row['name']}.baseline"] = float(row["t_baseline_s"])
    for row in doc.get("table2") or []:
        out[f"smoke.table2.{row['name']}.with_ear"] = float(row["wall_with_ear_s"])
        out[f"smoke.table2.{row['name']}.without_ear"] = float(row["wall_without_ear_s"])
    if not out:
        raise ValueError("document carries no recognizable phase timings")
    return out


# --------------------------------------------------------------------- #
# Chrome-trace differ — which span moved between two trace files?
# --------------------------------------------------------------------- #


def diff_chrome_traces(a: dict, b: dict) -> list[dict]:
    """Per-span-name wall-time deltas between two Chrome trace documents.

    Returns rows ``{name, a_s, b_s, delta_s, ratio}`` sorted by absolute
    delta, biggest mover first — the "which phase moved" answer for two
    ``repro-bench profile --trace-out`` files.  Both traces are read
    through :func:`repro.obs.export.load_chrome_trace`, so the virtual
    device tracks never mix into the wall-clock rows.
    """
    from .export import load_chrome_trace

    def seconds(doc: dict) -> dict[str, float]:
        out: dict[str, float] = {}
        for s in load_chrome_trace(doc).spans:
            out[s.name] = out.get(s.name, 0.0) + s.dur_ns / 1e9
        return out

    ta, tb = seconds(a), seconds(b)
    rows = []
    for name in sorted(set(ta) | set(tb)):
        a_s = ta.get(name, 0.0)
        b_s = tb.get(name, 0.0)
        rows.append(
            {
                "name": name,
                "a_s": a_s,
                "b_s": b_s,
                "delta_s": b_s - a_s,
                "ratio": (b_s / a_s) if a_s else float("inf"),
            }
        )
    rows.sort(key=lambda r: -abs(r["delta_s"]))
    return rows


# --------------------------------------------------------------------- #
# Candidate measurement — median-of-repeats profile phases
# --------------------------------------------------------------------- #


def phase_totals(collector) -> dict[str, float]:
    """Top-level span totals of a trace collector, keyed ``cat.name``.

    Only root spans count, so the preprocess/process/postprocess phases of
    the pipeline drivers do not double-count their nested children.
    """
    out: dict[str, float] = {}
    for node in collector.span_tree():
        s = node["span"]
        key = f"{s.cat}.{s.name}"
        out[key] = out.get(key, 0.0) + s.dur_ns / 1e9
    return out


def measure_profile_phases(
    workload: str = "apsp",
    dataset: str = "OPF_3754",
    scale: float | None = None,
    repeats: int = 3,
) -> dict[str, float]:
    """Median-of-repeats per-phase seconds for one profile workload.

    Each repeat runs the pipeline under a fresh trace collector and the
    per-phase medians across repeats become the candidate record — the
    same noise defence the gate applies to the baseline side.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    from .. import datasets as _datasets
    from .trace import tracing

    g = _datasets.load(dataset, scale)
    samples: dict[str, list[float]] = {}
    for _ in range(repeats):
        with tracing() as tr:
            if workload in ("apsp", "both"):
                from ..hetero.apsp_runner import apsp_with_trace

                apsp_with_trace(g)
            if workload in ("mcb", "both"):
                from ..hetero.mcb_runner import mcb_with_trace

                mcb_with_trace(g)
        for name, secs in phase_totals(tr).items():
            samples.setdefault(name, []).append(secs)
    return {name: median(vals) for name, vals in sorted(samples.items())}
