"""repro.obs.ledger: run records, tolerant JSONL reads, phase history."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.obs.ledger import (
    SCHEMA_VERSION,
    Ledger,
    LedgerError,
    RunRecord,
    default_ledger_path,
    git_sha,
    host_fingerprint,
    repro_knobs,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def _rec(kind="bench_smoke", phases=None, **kw) -> RunRecord:
    return RunRecord(kind=kind, phases=phases or {"smoke.a": 1.0}, **kw)


class TestStamps:
    def test_git_sha_in_this_repo(self):
        sha = git_sha(REPO_ROOT)
        assert sha is not None
        assert len(sha) == 40
        int(sha, 16)  # hex

    def test_git_sha_outside_git(self, tmp_path):
        assert git_sha(tmp_path) is None

    def test_host_fingerprint_keys(self):
        fp = host_fingerprint()
        assert set(fp) == {"hostname", "platform", "machine", "python", "cpus"}
        assert fp["cpus"] >= 1

    def test_repro_knobs_filters_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.08")
        monkeypatch.setenv("NOT_A_KNOB", "x")
        knobs = repro_knobs()
        assert knobs["REPRO_BENCH_SCALE"] == "0.08"
        assert "NOT_A_KNOB" not in knobs

    def test_default_ledger_path_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        assert default_ledger_path() is None
        monkeypatch.setenv("REPRO_LEDGER", "/tmp/led.jsonl")
        assert default_ledger_path() == Path("/tmp/led.jsonl")


class TestRunRecord:
    def test_new_stamps_context(self):
        rec = RunRecord.new(
            kind="profile", phases={"apsp.process": 0.5}, root=REPO_ROOT
        )
        assert rec.schema_version == SCHEMA_VERSION
        assert rec.git_sha == git_sha(REPO_ROOT)
        assert rec.created_unix > 0
        assert rec.host["cpus"] >= 1
        assert rec.phases == {"apsp.process": 0.5}

    def test_roundtrip(self):
        rec = RunRecord.new(
            kind="qa",
            phases={"qa.suite": 2.0},
            counters={"qa.checks": 3},
            memory={"peak": 123},
            meta={"seed": 0},
            root=REPO_ROOT,
        )
        back = RunRecord.from_dict(json.loads(json.dumps(rec.to_dict())))
        assert back == rec

    def test_from_dict_rejects_non_object(self):
        with pytest.raises(LedgerError, match="must be an object"):
            RunRecord.from_dict(["not", "a", "dict"])

    def test_from_dict_rejects_missing_schema(self):
        with pytest.raises(LedgerError, match="schema_version"):
            RunRecord.from_dict({"kind": "x", "phases": {}})

    def test_from_dict_rejects_future_schema(self):
        doc = _rec().to_dict()
        doc["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(LedgerError, match="newer than supported"):
            RunRecord.from_dict(doc)

    def test_from_dict_rejects_bad_phase_value(self):
        doc = _rec().to_dict()
        doc["phases"] = {"smoke.a": "fast"}
        with pytest.raises(LedgerError, match="non-numeric"):
            RunRecord.from_dict(doc)

    def test_from_dict_rejects_missing_kind(self):
        doc = _rec().to_dict()
        doc["kind"] = ""
        with pytest.raises(LedgerError, match="kind"):
            RunRecord.from_dict(doc)

    def test_v1_record_parses_without_exemplars(self):
        # A v1 record (written before the exemplars field existed) must
        # keep parsing under the v2 schema.
        doc = _rec().to_dict()
        doc["schema_version"] = 1
        rec = RunRecord.from_dict(doc)
        assert rec.schema_version == 1


class TestMixedVersionLedger:
    def test_reader_spans_schema_versions(self, tmp_path):
        """One JSONL holding v1, v2, and future-v records side by side.

        The append-only ledger never rewrites history: a reader must take
        v1 records (no exemplars field) as-is, v2 records carrying the
        retired ``exemplars`` list with that key ignored, and skip — not
        crash on — records stamped by a future schema.
        """
        path = tmp_path / "ledger.jsonl"
        v1 = _rec().to_dict()
        v1["schema_version"] = 1
        v1["meta"] = {"gen": "v1"}
        v2 = RunRecord.new(
            kind="profile", phases={"s.wall": 1.0}, root=REPO_ROOT
        ).to_dict()
        v2["exemplars"] = [{"metric": "query", "rank": 1}]
        v2["meta"] = {"gen": "v2"}
        future = _rec().to_dict()
        future["schema_version"] = SCHEMA_VERSION + 1
        future["meta"] = {"gen": "future"}
        with open(path, "w") as fh:
            for doc in (v1, v2, future):
                fh.write(json.dumps(doc) + "\n")
        ledger = Ledger(path)
        recs = ledger.records()
        assert [r.meta["gen"] for r in recs] == ["v1", "v2"]
        assert ledger.skipped == 1


class TestLedger:
    def test_append_and_read(self, tmp_path):
        led = Ledger(tmp_path / "runs.jsonl")
        led.append(_rec(phases={"smoke.a": 1.0}))
        led.append(_rec(phases={"smoke.a": 2.0}))
        recs = led.records()
        assert [r.phases["smoke.a"] for r in recs] == [1.0, 2.0]
        assert led.skipped == 0

    def test_append_creates_parents(self, tmp_path):
        led = Ledger(tmp_path / "deep" / "runs.jsonl")
        led.append(_rec())
        assert led.path.exists()

    def test_missing_file_reads_empty(self, tmp_path):
        led = Ledger(tmp_path / "absent.jsonl")
        assert led.records() == []
        assert led.latest() is None

    def test_tolerant_reader_skips_garbage(self, tmp_path):
        p = tmp_path / "runs.jsonl"
        led = Ledger(p)
        led.append(_rec(phases={"smoke.a": 1.0}))
        with open(p, "a") as fh:
            fh.write("{not json\n")                     # corrupt line
            fh.write("\n")                              # blank line (ignored)
            doc = _rec().to_dict()
            doc["schema_version"] = SCHEMA_VERSION + 5  # future writer
            fh.write(json.dumps(doc) + "\n")
        led.append(_rec(phases={"smoke.a": 3.0}))
        recs = led.records()
        assert [r.phases["smoke.a"] for r in recs] == [1.0, 3.0]
        assert led.skipped == 2  # corrupt + future; blank is not an error

    def test_kind_filter_and_latest(self, tmp_path):
        led = Ledger(tmp_path / "runs.jsonl")
        led.append(_rec(kind="bench_smoke", phases={"smoke.a": 1.0}))
        led.append(_rec(kind="profile", phases={"apsp.process": 9.0}))
        led.append(_rec(kind="bench_smoke", phases={"smoke.a": 2.0}))
        assert len(led.records("bench_smoke")) == 2
        assert led.latest("bench_smoke").phases["smoke.a"] == 2.0
        assert led.latest("profile").phases == {"apsp.process": 9.0}
        assert led.latest("nope") is None

    def test_phase_history_with_limit(self, tmp_path):
        led = Ledger(tmp_path / "runs.jsonl")
        for v in (1.0, 2.0, 3.0, 4.0):
            led.append(_rec(phases={"smoke.a": v, "smoke.b": v * 10}))
        hist = led.phase_history("bench_smoke")
        assert hist["smoke.a"] == [1.0, 2.0, 3.0, 4.0]
        hist = led.phase_history("bench_smoke", limit=2)
        assert hist["smoke.a"] == [3.0, 4.0]
        assert hist["smoke.b"] == [30.0, 40.0]

    def test_jsonl_is_plain_one_object_per_line(self, tmp_path):
        """The format promise: grep/jq-able, sorted keys, newline-terminated."""
        led = Ledger(tmp_path / "runs.jsonl")
        led.append(_rec())
        text = led.path.read_text()
        assert text.endswith("\n")
        doc = json.loads(text.splitlines()[0])
        assert doc["kind"] == "bench_smoke"
        assert list(doc) == sorted(doc)


def _append_burst(path: str, worker: int, count: int) -> None:
    """Child-process body for the concurrent-append test (module level so
    it pickles under the spawn start method)."""
    from repro.obs.ledger import Ledger, RunRecord

    led = Ledger(path)
    for i in range(count):
        led.append(
            RunRecord.new(kind="stress", phases={f"w{worker}.p{i}": float(i)})
        )


class TestConcurrentAppend:
    def test_multiprocess_appends_never_tear_lines(self, tmp_path):
        """4 processes × 25 appends race one ledger file; every record
        must read back whole — the O_APPEND single-write contract."""
        import multiprocessing as mp

        path = tmp_path / "runs.jsonl"
        procs = [
            mp.Process(target=_append_burst, args=(str(path), w, 25))
            for w in range(4)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        led = Ledger(path)
        recs = led.records(kind="stress")
        assert len(recs) == 100
        assert led.skipped == 0
        # Every (worker, i) pair arrived exactly once — nothing was
        # interleaved into another record's line.
        seen = {name for r in recs for name in r.phases}
        assert len(seen) == 100


class TestBenchSmokeStamping:
    def test_script_stamps_baseline_and_appends_ledger(self, tmp_path):
        """Satellite: bench_smoke output carries git SHA + schema version."""
        import os
        import subprocess
        import sys

        out = tmp_path / "baseline.json"
        ledger = tmp_path / "ledger.jsonl"
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        )
        proc = subprocess.run(
            [
                sys.executable,
                str(REPO_ROOT / "scripts" / "bench_smoke.py"),
                "--scale", "0.004",
                "--out", str(out),
                "--ledger", str(ledger),
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["git_sha"] == git_sha(REPO_ROOT)
        assert doc["created_unix"] > 0
        assert doc["host"]["cpus"] >= 1
        assert doc["phases"]["smoke.repeated_sssp.cached"] > 0
        rec = Ledger(ledger).latest("bench_smoke")
        assert rec is not None
        assert rec.phases == doc["phases"]
        assert "schema v" in proc.stdout
