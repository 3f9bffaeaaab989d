"""Table 2 — MCB times for the four implementations, with/without ears.

Runs the ear-reduced Mehlhorn–Michail pipeline on the first seven Table-1
stand-ins (the paper's MCB evaluation set), verifies every basis, and
replays the recorded kernel trace on the sequential / multicore / GPU /
CPU+GPU platform models.

Expected shapes (paper): the ear benefit is largest on sequential and
tracks the degree-2 fraction (as-22july06 ≈ 10×, nopoly ≈ 1×); the
virtual implementations order hetero ≤ gpu ≤ multicore ≤ sequential in
time.  Magnitudes are compressed at reduced scale (see EXPERIMENTS.md).
"""

import pytest

from repro.bench import expected, format_table, run_table2
from repro.bench.harness import ear_speedup_by_impl


def test_table2_rows(benchmark, table2):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    platforms = list(table2[0].seconds)
    print()
    body = [
        (r.name, r.f, *(x for p in platforms for x in r.seconds[p]))
        for r in table2
    ]
    print(
        format_table(
            ["graph", "f", "seq w", "seq w/o", "mc w", "mc w/o",
             "gpu w", "gpu w/o", "het w", "het w/o"],
            body,
            title="Table 2 (reproduced, virtual seconds)",
        )
    )
    for r in table2:
        # ear decomposition never makes any implementation slower (beyond
        # scheduling noise)
        for p in platforms:
            w, wo = r.seconds[p]
            assert w <= wo * 1.05, (r.name, p)
        # paper-matching special cases: zero-degree-2 graphs see no change
        if r.name in ("nopoly", "OPF_3754", "delaunay_n15"):
            w, wo = r.seconds["sequential"]
            assert w / wo > 0.9
    # as-22july06 (77% removed) must show the biggest sequential ear win.
    by_name = {r.name: r for r in table2}
    as_ratio = by_name["as-22july06"].seconds["sequential"]
    np_ratio = by_name["nopoly"].seconds["sequential"]
    assert as_ratio[1] / as_ratio[0] > np_ratio[1] / np_ratio[0]
    benchmark.extra_info["rows"] = {
        r.name: {p: [round(x, 5) for x in r.seconds[p]] for p in platforms}
        for r in table2
    }


def test_table2_ear_speedup_by_impl(benchmark, table2):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    ear = ear_speedup_by_impl(table2)
    print()
    print(
        format_table(
            ["implementation", "paper ear speedup", "measured"],
            [(p, expected.EAR_SPEEDUP_BY_IMPL[p], v) for p, v in ear.items()],
            title="Ear-decomposition speedup per implementation (Section 3.5)",
        )
    )
    assert ear["sequential"] >= 1.2  # clear sequential win on average
    # The paper's ordering: sequential benefits most from ears.
    assert ear["sequential"] >= max(ear["gpu"], ear["cpu+gpu"]) - 0.05
    benchmark.extra_info["ear_speedups"] = {k: round(v, 2) for k, v in ear.items()}


def test_table2_timing_kernel(benchmark, scale):
    """pytest-benchmark timing of one full ear-MCB solve."""
    from repro import datasets
    from repro.mcb import minimum_cycle_basis

    g = datasets.load("as-22july06", scale)
    benchmark.pedantic(minimum_cycle_basis, args=(g,), rounds=1, iterations=1)
