"""Benchmark support: metrics, paper-expected values, harness, reporting."""

from . import expected
from .harness import (
    Fig2Row,
    Table2Row,
    ear_speedup_by_impl,
    run_fig2,
    run_fig3,
    run_fig5,
    run_fig6,
    run_phase_breakdown,
    run_table1,
    run_table2,
)
from .metrics import geomean, geometric_mean, mteps, speedup
from .reporting import format_kv, format_table, ratio_note

__all__ = [
    "expected",
    "Fig2Row",
    "Table2Row",
    "ear_speedup_by_impl",
    "run_fig2",
    "run_fig3",
    "run_fig5",
    "run_fig6",
    "run_phase_breakdown",
    "run_table1",
    "run_table2",
    "geomean",
    "geometric_mean",
    "mteps",
    "speedup",
    "format_kv",
    "format_table",
    "ratio_note",
]
