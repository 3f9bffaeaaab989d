"""Doc drift: the counter and knob tables in the docs vs reality.

The "Key instruments" table documents every counter the instrumented
paths emit.  Tables rot silently: a new counter lands in code, the doc
row doesn't, and the observability contract quietly narrows.  This
suite closes the loop in both directions:

* **emitted => documented** — run a smoke workload spanning the oracle
  bulk-query path (build, ``query_many``), and assert every counter that
  moved appears in the table;
* **documented => emitted** — for the family this suite owns
  (``bulk_query.``), assert every documented name actually moves, so
  stale rows fail too.

Table rows pack sibling names as ``` `bulk_query.batches` / `.pairs` ```;
a bare ``.suffix`` continuation expands against the preceding full name.

The ``REPRO_*`` environment variables get the same two-way check: every
name the code reads has a row in README's "Execution knobs" table or in a
knob table under ``docs/``, and every documented name is still read.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import numpy as np
import pytest

from repro.apsp.oracle import DistanceOracle
from repro.apsp.reduced_oracle import ReducedDistanceOracle
from repro.obs.metrics import Counter, registry, snapshot
from repro.qa import strategies

ROOT = Path(__file__).resolve().parent.parent
DOC = ROOT / "docs" / "OBSERVABILITY.md"

# The families this suite asserts are *exhaustively* documented-and-live.
# Other families (mcb.*, reduce.*, queue.*...) have workload-specific
# triggers and are covered by the emitted=>documented direction only.
OWNED_PREFIXES = ("bulk_query.",)

_NAME_RE = re.compile(r"`([^`]+)`")
_METRIC_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)+$")
_ENV_RE = re.compile(r"^REPRO_[A-Z0-9_]+$")
_KNOB_ROW_RE = re.compile(r"^\|\s*`(REPRO_[A-Z0-9_]+)`\s*\|")


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


def env_vars_read(*dirs: str) -> set[str]:
    """``REPRO_*`` names the Python code under ``dirs`` reads.

    A name counts when a string literal is exactly that name, which covers
    ``os.environ.get("REPRO_X")``, module constants holding the name and
    ``monkeypatch.setenv("REPRO_X", ...)``; prose in docstrings does not.
    """
    names: set[str] = set()
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and _ENV_RE.match(node.value)
                ):
                    names.add(node.value)
    return names


def documented_env_vars() -> dict[str, list[str]]:
    """``REPRO_*`` name -> the docs whose knob table has a row for it.

    A knob-table row is a markdown row whose first cell is one backticked
    ``REPRO_*`` name.  README counts only inside its "Execution knobs"
    section; every ``docs/*.md`` counts in full.
    """
    readme = (ROOT / "README.md").read_text().split("\n## ")
    sources = {
        "README.md": next(s for s in readme if s.startswith("Execution knobs")),
    }
    for path in sorted((ROOT / "docs").glob("*.md")):
        sources[f"docs/{path.name}"] = path.read_text()
    rows: dict[str, list[str]] = {}
    for where, text in sources.items():
        for line in text.splitlines():
            m = _KNOB_ROW_RE.match(line.strip())
            if m:
                rows.setdefault(m.group(1), []).append(where)
    return rows


def _all_pairs(n: int) -> np.ndarray:
    uu, vv = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.column_stack([uu.ravel(), vv.ravel()]).astype(np.int64)


def _run_smoke_workload() -> None:
    """Touch every owned counter once, for real.

    star_of_cycles drives same-bcc / cross-bcc / component-group
    traffic, the disconnected graph drives unreachable pairs, and both
    oracles run query_many.
    """
    graphs = [
        strategies.star_of_cycles(arms=3, cycle_len=4, seed=5),
        strategies.disconnected_graph(3, 4, isolated=1, seed=5),
    ]
    for g in graphs:
        pairs = _all_pairs(g.n)
        for oracle_cls in (DistanceOracle, ReducedDistanceOracle):
            oracle_cls(g).query_many(pairs)


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
        assert not any(n.startswith(".") for n in doc)

    def test_gauge_rows_excluded(self):
        doc = documented_counters()
        assert "memory.engine.adj_cache_bytes" not in doc  # a Gauge-table row
        assert not any(n.startswith("memory.") for n in doc)


class TestDocDrift:
    @pytest.fixture(scope="class")
    def drift(self):
        before = snapshot()
        _run_smoke_workload()
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


class TestEnvVarDocs:
    def test_every_read_env_var_is_documented(self):
        read = env_vars_read("src", "scripts")
        assert read, "found no REPRO_* reads under src/ or scripts/"
        undocumented = read - set(documented_env_vars())
        assert not undocumented, (
            "environment variables read by src/ or scripts/ with no row in "
            "README's \"Execution knobs\" table or a docs/ knob table: "
            f"{sorted(undocumented)}"
        )

    def test_every_documented_env_var_is_read(self):
        documented = documented_env_vars()
        assert documented, "found no REPRO_* knob-table rows"
        read = env_vars_read("src", "scripts", "tests")
        stale = {name: where for name, where in documented.items() if name not in read}
        assert not stale, (
            "knob-table rows for environment variables that nothing in "
            f"src/, scripts/ or tests/ reads (stale rows?): {stale}"
        )
