"""Doc drift: the counter table in docs/OBSERVABILITY.md vs reality.

The "Key instruments" table documents every counter the instrumented
paths emit.  Tables rot silently: a new counter lands in code, the doc
row doesn't, and the observability contract quietly narrows.  This
suite closes the loop in both directions:

* **emitted => documented** — run a smoke workload spanning the oracle
  bulk-query path (build, ``query_many``, a sampler window), and assert
  every counter that moved appears in the table;
* **documented => emitted** — for the families this suite owns
  (``bulk_query.``, ``critpath.``, ``sampler.``), assert every
  documented name actually moves, so stale rows fail too.

Table rows pack sibling names as ``` `bulk_query.batches` / `.pairs` ```;
a bare ``.suffix`` continuation expands against the preceding full name.
"""

from __future__ import annotations

import re
import time
from pathlib import Path

import numpy as np
import pytest

from repro.apsp.oracle import DistanceOracle
from repro.apsp.reduced_oracle import ReducedDistanceOracle
from repro.obs.metrics import Counter, registry, snapshot
from repro.obs.sampler import StackSampler, read_profile
from repro.qa import strategies

DOC = Path(__file__).resolve().parent.parent / "docs" / "OBSERVABILITY.md"

# The families this suite asserts are *exhaustively* documented-and-live.
# Other families (mcb.*, reduce.*, parallel.*...) have workload-specific
# triggers and are covered by the emitted=>documented direction only.
OWNED_PREFIXES = ("bulk_query.", "critpath.", "sampler.")

_NAME_RE = re.compile(r"`([^`]+)`")
_METRIC_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)+$")


def documented_counters() -> set[str]:
    """Counter names from the "Key instruments" metric table.

    Parses every markdown row whose Kind column says ``counter``, pulls
    the backticked tokens out of the Metric column, and expands bare
    ``.suffix`` continuations against the previous full name (matching
    the suffix's component count, so ``a.b.c`` / ``.d`` -> ``a.b.d``).
    """
    names: set[str] = set()
    for line in DOC.read_text().splitlines():
        if not line.lstrip().startswith("|"):
            continue
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) < 3 or cells[1] != "counter":
            continue
        prev = None
        for token in _NAME_RE.findall(cells[0]):
            if token.startswith("."):
                assert prev is not None, f"dangling continuation {token!r}"
                parts = token[1:].split(".")
                full = prev.rsplit(".", len(parts))[0] + token
            else:
                full = token
            assert _METRIC_RE.match(full), (
                f"unparseable metric token {token!r} (line: {line!r})"
            )
            names.add(full)
            prev = full
    return names


def _all_pairs(n: int) -> np.ndarray:
    uu, vv = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.column_stack([uu.ravel(), vv.ravel()]).astype(np.int64)


def _run_smoke_workload(tmp_path: Path) -> None:
    """Touch every owned counter family once, for real.

    star_of_cycles drives same-bcc / cross-bcc / component-group
    traffic, the disconnected graph drives unreachable pairs, both
    oracles run query_many, a live sampler window
    drives ``sampler.samples``, and a deliberately malformed shard
    drives ``sampler.errors`` through ``read_profile``'s tolerant merge.
    """
    graphs = [
        strategies.star_of_cycles(arms=3, cycle_len=4, seed=5),
        strategies.disconnected_graph(3, 4, isolated=1, seed=5),
    ]
    for g in graphs:
        pairs = _all_pairs(g.n)
        for oracle_cls in (DistanceOracle, ReducedDistanceOracle):
            oracle_cls(g).query_many(pairs)

    s = StackSampler(hz=500).start()
    try:
        deadline = time.monotonic() + 5.0
        while s.samples == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
    finally:
        s.stop()
    assert s.samples > 0, "sampler took no stack snapshots within 5s"

    bad = tmp_path / "drift-profile"
    bad.mkdir()
    (bad / "profile-1.collapsed").write_text("frame;frame not_a_count\n")
    read_profile(bad)

    # critpath.*: one analysis over a synthetic trace that carries both a
    # fabricated straggler (finishes 1/1/1/50 ms inside one dispatch) and
    # an orphan worker chunk with no dispatch bracket, so the analyses /
    # stragglers / orphans counters all move in a single pass.
    from repro.obs.critpath import analyze_collector
    from repro.obs.trace import Span, TraceCollector

    ms = 1_000_000
    tr = TraceCollector()
    tr.ingest(
        [
            Span(name="parallel.dispatch", cat="parallel", start_ns=0,
                 dur_ns=51 * ms, pid=1, tid=1, depth=0,
                 args={"dispatch": 1, "workers": 4}).to_tuple(),
            *(
                Span(name="parallel.worker_chunk", cat="parallel",
                     start_ns=0, dur_ns=dur * ms, pid=10 + i, tid=1,
                     depth=0, args={"dispatch": 1, "chunk": i}).to_tuple()
                for i, dur in enumerate((1, 1, 1, 50))
            ),
            Span(name="parallel.worker_chunk", cat="parallel",
                 start_ns=60 * ms, dur_ns=ms, pid=99, tid=1, depth=0,
                 args={"dispatch": 777, "chunk": 0}).to_tuple(),
        ]
    )
    res = analyze_collector(tr)
    assert res.stragglers and res.orphans, "drift workload lost its shape"


def _counter_names() -> set[str]:
    # Instrument kinds aren't visible in a snapshot alone (a gauge set
    # to an int is indistinguishable from a counter), so ask the
    # registry which names are genuinely Counter instruments.
    return {
        name
        for name, inst in registry()._instruments.items()
        if isinstance(inst, Counter)
    }


class TestCounterTableParser:
    def test_expands_suffix_continuations(self):
        doc = documented_counters()
        assert "bulk_query.batches" in doc
        assert "bulk_query.pairs" in doc          # from `.pairs`
        assert "engine.adj_cache.hits" in doc
        assert "engine.adj_cache.misses" in doc   # from `.misses`
        assert "sampler.errors" in doc
        assert not any(n.startswith(".") for n in doc)

    def test_gauge_rows_excluded(self):
        doc = documented_counters()
        assert "parallel.workers" not in doc      # documented as gauge
        assert not any(n.startswith("memory.") for n in doc)


class TestDocDrift:
    @pytest.fixture(scope="class")
    def drift(self, tmp_path_factory):
        before = snapshot()
        _run_smoke_workload(tmp_path_factory.mktemp("drift"))
        after = snapshot()
        counters = _counter_names()
        emitted = {
            name
            for name, val in after.items()
            if name in counters and val > before.get(name, 0)
        }
        return emitted, documented_counters()

    def test_emitted_counters_are_documented(self, drift):
        emitted, documented = drift
        undocumented = emitted - documented
        assert not undocumented, (
            "counters emitted by the bulk-query workload but missing "
            f"from the docs/OBSERVABILITY.md metric table: "
            f"{sorted(undocumented)}"
        )

    def test_documented_owned_families_are_emitted(self, drift):
        emitted, documented = drift
        owned = {
            n for n in documented if n.startswith(OWNED_PREFIXES)
        }
        assert owned, "metric table lost the owned counter families"
        stale = owned - emitted
        assert not stale, (
            "counters documented in docs/OBSERVABILITY.md that the "
            f"workload never emitted (stale rows?): {sorted(stale)}"
        )
