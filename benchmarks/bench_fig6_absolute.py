"""Figure 6 — absolute speeds of the four MCB implementations.

The companion view of Table 2: virtual seconds per implementation (with
ears), per dataset.  Expected shape: times ordered
sequential ≥ multicore ≥ {gpu, cpu+gpu}, with the ratios of Table 2's
'w' columns.
"""

import pytest

from repro.bench import format_table, run_fig6, run_table2


def test_fig6_absolute_speeds(benchmark, table2):
    rows = benchmark.pedantic(lambda: run_fig6(table2), rounds=1, iterations=1)
    platforms = list(table2[0].seconds)
    print()
    print(
        format_table(
            ["graph", *platforms],
            [(d["name"], *(d[p] for p in platforms)) for d in rows],
            title="Figure 6 (reproduced): absolute virtual seconds (with ears)",
        )
    )
    for d in rows:
        assert d["sequential"] >= d["cpu+gpu"] * 0.95, d["name"]
    benchmark.extra_info["fig6"] = {
        d["name"]: {p: round(d[p], 5) for p in platforms} for d in rows
    }


def test_fig6_wall_clock_companion(benchmark, table2):
    """Real Python wall time (ears on vs off) for reference."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["graph", "wall w/ ear (s)", "wall w/o ear (s)", "ratio"],
            [
                (r.name, r.wall_with_ear, r.wall_without_ear,
                 r.wall_without_ear / r.wall_with_ear)
                for r in table2
            ],
            title="Python wall-clock ear ablation (companion)",
        )
    )
