#!/usr/bin/env python
"""Smoke benchmark: engine adjacency cache, bulk queries and paper rows.

Runs in well under a minute and writes ``BENCH_BASELINE.json`` at the repo
root, giving every change to the bulk-SSSP engine a before/after anchor:

* ``repeated_sssp`` — the workload the adjacency cache targets: many
  SSSPs on one graph.  ``uncached_per_source`` rebuilds the
  scipy adjacency for every source (the pre-cache behaviour);
  ``cached_chunked`` is one ``multi_source`` call through the cache.
* ``bulk_query`` — vectorized oracle ``query_many`` vs the scalar per-pair
  loop on a chain-heavy theta graph, checked bit-identical first.
* ``fig2`` / ``table2`` — tiny-scale rows of the two headline paper
  benchmarks, correctness-checked by the harness itself.  Each leg is its
  fastest of ``LEG_REPEATS`` calls, with the spread (max − min) of those
  calls beside it (``*_spread_s``).

Usage: ``PYTHONPATH=src python scripts/bench_smoke.py [--scale 0.02]``
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _time(fn, repeat: int = 3) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_repeated_sssp(scale: float) -> dict:
    from repro import datasets
    from repro.bench.metrics import speedup
    from repro.sssp import engine

    g = datasets.load("as-22july06", scale)
    sources = np.arange(min(g.n, 256), dtype=np.int64)

    def uncached() -> None:
        for s in sources:
            engine.sssp(g, int(s), cache=False)

    def cached_chunked() -> None:
        engine.multi_source(g, sources)

    engine.adjacency_cache().clear()
    t_uncached = _time(uncached, repeat=1)
    t_cached = _time(cached_chunked)
    info = engine.adjacency_cache().info()
    return {
        "graph": {"name": "as-22july06", "n": g.n, "m": g.m},
        "sources": int(sources.size),
        "uncached_per_source_s": t_uncached,
        "cached_chunked_s": t_cached,
        "speedup": speedup(t_uncached, t_cached),
        "cache": {"hits": info.hits, "misses": info.misses},
    }


def bench_bulk_query(scale: float) -> dict:
    """Vectorized ``query_many`` vs the scalar loop on a chain-heavy graph.

    The theta-graph family is the oracle's worst case for per-pair Python
    dispatch (every pair touches the chain formulas), so it is where the
    vectorized classification pays off most honestly.  Results are checked
    bit-identical before either timing is recorded.
    """
    from repro.apsp.reduced_oracle import ReducedDistanceOracle
    from repro.bench.metrics import speedup
    from repro.qa.strategies import theta_graph

    n_chains, chain_len = 6, max(8, int(2000 * scale))
    g = theta_graph(n_chains=n_chains, chain_len=chain_len, seed=7)
    oracle = ReducedDistanceOracle(g)
    rng = np.random.default_rng(7)
    pairs = rng.integers(0, g.n, size=(20_000, 2), dtype=np.int64)
    parity = bool(
        np.array_equal(oracle.query_many(pairs), oracle.query_many_scalar(pairs))
    )
    t_scalar = _time(lambda: oracle.query_many_scalar(pairs), repeat=1)
    t_vector = _time(lambda: oracle.query_many(pairs))
    return {
        "graph": {"name": f"theta-{n_chains}x{chain_len}", "n": g.n, "m": g.m},
        "pairs": int(pairs.shape[0]),
        "scalar_s": t_scalar,
        "vectorized_s": t_vector,
        "scalar_pairs_per_s": pairs.shape[0] / t_scalar,
        "vectorized_pairs_per_s": pairs.shape[0] / t_vector,
        "speedup": speedup(t_scalar, t_vector),
        "bit_identical": parity,
    }


def bench_fig2(scale: float) -> list[dict]:
    from repro.bench import run_fig2

    rows = run_fig2(scale=scale, names=["nopoly", "OPF_3754"])
    return [
        {
            "name": r.name,
            "n": r.n,
            "m": r.m,
            "t_ours_s": r.t_ours,
            "t_baseline_s": r.t_baseline,
            "t_ours_spread_s": r.t_ours_spread,
            "t_baseline_spread_s": r.t_baseline_spread,
            "baseline": r.baseline,
            "speedup": r.speedup,
        }
        for r in rows
    ]


def bench_table2(scale: float) -> list[dict]:
    from repro.bench import run_table2

    rows = run_table2(scale=scale, names=["nopoly", "OPF_3754"])
    rows_out = []
    for r in rows:
        # Columns in table2_platforms() order: sequential first, cpu+gpu last.
        (seq, _), *_, (het, _) = r.seconds.values()
        rows_out.append({
            "name": r.name,
            "n": r.n,
            "m": r.m,
            "f": r.f,
            "wall_with_ear_s": r.wall_with_ear,
            "wall_without_ear_s": r.wall_without_ear,
            "wall_with_ear_spread_s": r.wall_with_ear_spread,
            "wall_without_ear_spread_s": r.wall_without_ear_spread,
            "virtual_speedup_cpu_gpu": seq / het if het else float("inf"),
        })
    return rows_out


def _phases(baseline: dict) -> dict:
    """Flatten the section timings into the ledger/regress phase map.

    These names are the contract the regression gate compares across
    commits.
    """
    rs = baseline["repeated_sssp"]
    phases = {
        "smoke.repeated_sssp.uncached": rs["uncached_per_source_s"],
        "smoke.repeated_sssp.cached": rs["cached_chunked_s"],
        "smoke.bulk_query.scalar": baseline["bulk_query"]["scalar_s"],
        "smoke.bulk_query.vectorized": baseline["bulk_query"]["vectorized_s"],
    }
    for row in baseline["fig2"]:
        phases[f"smoke.fig2.{row['name']}.ours"] = row["t_ours_s"]
        phases[f"smoke.fig2.{row['name']}.baseline"] = row["t_baseline_s"]
    for row in baseline["table2"]:
        phases[f"smoke.table2.{row['name']}.with_ear"] = row["wall_with_ear_s"]
        phases[f"smoke.table2.{row['name']}.without_ear"] = row["wall_without_ear_s"]
    return phases


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.02)
    parser.add_argument(
        "--out", type=Path, default=ROOT / "BENCH_BASELINE.json"
    )
    parser.add_argument(
        "--ledger",
        type=Path,
        default=ROOT / "BENCH_LEDGER.jsonl",
        help="append-only JSONL run ledger (see docs/OBSERVABILITY.md)",
    )
    parser.add_argument(
        "--no-ledger",
        action="store_true",
        help="skip the ledger append (baseline file only)",
    )
    args = parser.parse_args()

    from repro.obs.ledger import (
        SCHEMA_VERSION,
        Ledger,
        RunRecord,
        git_sha,
        host_fingerprint,
    )

    baseline = {
        # Self-describing stamp: a baseline read years later (or by the
        # regress gate on another host) identifies its commit and schema.
        "schema_version": SCHEMA_VERSION,
        "git_sha": git_sha(ROOT),
        "created_unix": time.time(),
        "host": host_fingerprint(),
        "scale": args.scale,
        "repeated_sssp": bench_repeated_sssp(args.scale),
        "bulk_query": bench_bulk_query(args.scale),
        "fig2": bench_fig2(args.scale),
        "table2": bench_table2(args.scale),
    }
    baseline["phases"] = _phases(baseline)
    # Whole-run observability counters: cache efficacy, dispatch volume
    # (repro.obs.metrics snapshot).
    from repro.obs import snapshot
    from repro.sssp.engine import adjacency_cache

    info = adjacency_cache().info()
    baseline["obs"] = {
        "adjacency_cache": {
            "hits": info.hits,
            "misses": info.misses,
            "size": info.size,
            "maxsize": info.maxsize,
        },
        "counters": {k: v for k, v in snapshot().items() if v},
    }
    args.out.write_text(json.dumps(baseline, indent=2) + "\n")
    if not args.no_ledger:
        ledger = Ledger(args.ledger)
        ledger.append(
            RunRecord.new(
                kind="bench_smoke",
                phases=baseline["phases"],
                counters=baseline["obs"]["counters"],
                memory={"adjacency_cache": baseline["obs"]["adjacency_cache"]},
                meta={"scale": args.scale, "out": str(args.out)},
                root=ROOT,
            )
        )
        print(f"appended run record to {ledger.path}")
    rs = baseline["repeated_sssp"]
    print(f"wrote {args.out} (schema v{SCHEMA_VERSION}, "
          f"sha {(baseline['git_sha'] or 'unknown')[:12]})")
    cache = baseline["obs"]["adjacency_cache"]
    print(f"adjacency cache: {cache['hits']} hits / {cache['misses']} misses")
    print(
        f"repeated-sssp: uncached {rs['uncached_per_source_s']:.3f}s "
        f"vs cached {rs['cached_chunked_s']:.3f}s "
        f"({rs['speedup']:.1f}x)"
    )
    bq = baseline["bulk_query"]
    print(
        f"bulk query: scalar {bq['scalar_s']:.3f}s vs vectorized "
        f"{bq['vectorized_s']:.4f}s ({bq['speedup']:.1f}x, "
        f"bit_identical={bq['bit_identical']})"
    )


if __name__ == "__main__":
    main()
