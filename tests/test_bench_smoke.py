"""Opt-in smoke benchmark guard (``REPRO_BENCH_SMOKE=1 pytest -m benchsmoke``).

Runs ``scripts/bench_smoke.py`` at a tiny scale and checks the performance
claims the engine work is built on: the cached + chunked bulk path beats
rebuilding the adjacency per source by at least 2x, and the parallel
backend stays bit-identical (it only has to *win* when the host actually
has a second core).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

pytestmark = [
    pytest.mark.benchsmoke,
    pytest.mark.skipif(
        os.environ.get("REPRO_BENCH_SMOKE") != "1",
        reason="smoke benchmark is opt-in (REPRO_BENCH_SMOKE=1)",
    ),
]


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "BENCH_BASELINE.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    subprocess.run(
        [
            sys.executable,
            str(ROOT / "scripts" / "bench_smoke.py"),
            "--scale",
            "0.02",
            "--out",
            str(out),
            "--ledger",
            str(out.parent / "ledger.jsonl"),
        ],
        check=True,
        env=env,
        timeout=600,
    )
    return json.loads(out.read_text())


def test_cache_and_chunking_speedup(baseline):
    rs = baseline["repeated_sssp"]
    assert rs["cache"]["misses"] <= 1
    assert rs["speedup"] >= 2.0


def test_parallel_backend(baseline):
    pl = baseline["parallel"]
    assert pl["bit_identical"]
    if pl["host_cores"] >= 2 and pl["pool_live"]:
        assert pl["speedup"] > 1.0


def test_bulk_query_fast_path(baseline):
    bq = baseline["bulk_query"]
    assert bq["bit_identical"]
    assert bq["speedup"] >= 10.0
    assert {"smoke.bulk_query.scalar", "smoke.bulk_query.vectorized"} <= set(
        baseline["phases"]
    )


def test_paper_rows_present(baseline):
    assert {r["name"] for r in baseline["fig2"]} == {"nopoly", "OPF_3754"}
    assert {r["name"] for r in baseline["table2"]} == {"nopoly", "OPF_3754"}
    for r in baseline["table2"]:
        assert r["virtual_speedup_cpu_gpu"] > 1.0
    # Every min-of-k leg carries its spread (max − min over the k calls).
    for section, legs in (("fig2", ("t_ours", "t_baseline")),
                          ("table2", ("wall_with_ear", "wall_without_ear"))):
        for r in baseline[section]:
            assert all(r[f"{leg}_spread_s"] >= 0 for leg in legs), (section, r["name"])
