"""Append-only JSONL run ledger: the repo's longitudinal benchmark database.

Every benchmark-ish entry point (``scripts/bench_smoke.py``, ``repro-bench
profile``, ``repro-bench qa``, ``repro-bench regress --record``) can append
one schema-versioned :class:`RunRecord` per run.  A record carries enough
context to compare runs *across commits and hosts*: git SHA, host
fingerprint, the ``REPRO_*`` knob environment, per-phase wall times, the
counter diff of the run's window, and memory statistics.

The format is one JSON object per line (JSONL) so appends are atomic-ish,
merges are trivial, and ``grep``/``jq`` work.  Readers are tolerant:
malformed or future-schema lines are skipped and counted, never fatal —
an old checkout must be able to read a ledger written by a newer one.

The regression gate (:mod:`repro.obs.regress`) consumes the ledger as its
noise model: per-phase medians and MAD bands over the recorded history.
"""

from __future__ import annotations

import json
import os
import platform
import socket
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "SCHEMA_VERSION",
    "LedgerError",
    "RunRecord",
    "Ledger",
    "git_sha",
    "host_fingerprint",
    "repro_knobs",
    "default_ledger_path",
]

#: Bump when a reader would misinterpret older records.  Readers accept
#: records with ``schema_version <= SCHEMA_VERSION`` and skip newer ones.
#:
#: * **1** — original layout (kind/phases/counters/memory/meta).
#: * **2** — added a top-level ``exemplars`` list.  It is no longer
#:   written and is ignored on read.
SCHEMA_VERSION = 2


class LedgerError(ValueError):
    """A record or ledger file that cannot be interpreted."""


def git_sha(root: str | os.PathLike | None = None) -> str | None:
    """Current-commit SHA of the repo at ``root`` (or cwd); ``None`` outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(root) if root is not None else None,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):  # pragma: no cover - no git
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def host_fingerprint() -> dict:
    """Stable description of the machine a record was measured on."""
    return {
        "hostname": socket.gethostname(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
    }


def repro_knobs() -> dict:
    """Every ``REPRO_*`` environment knob in effect (the run's configuration)."""
    return {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")}


def default_ledger_path() -> Path | None:
    """``REPRO_LEDGER`` as a path, or ``None`` (ledger writes are opt-in)."""
    val = os.environ.get("REPRO_LEDGER", "").strip()
    return Path(val) if val else None


@dataclass
class RunRecord:
    """One benchmark run: context + per-phase times + counters + memory."""

    kind: str                       # "bench_smoke" | "profile" | "qa" | ...
    phases: dict[str, float]        # phase name -> seconds
    schema_version: int = SCHEMA_VERSION
    created_unix: float = 0.0
    git_sha: str | None = None
    host: dict = field(default_factory=dict)
    knobs: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    memory: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    @classmethod
    def new(
        cls,
        kind: str,
        phases: dict[str, float],
        counters: dict | None = None,
        memory: dict | None = None,
        meta: dict | None = None,
        root: str | os.PathLike | None = None,
    ) -> "RunRecord":
        """A record stamped with the current commit, host, knobs, and time."""
        return cls(
            kind=kind,
            phases={str(k): float(v) for k, v in phases.items()},
            created_unix=time.time(),
            git_sha=git_sha(root),
            host=host_fingerprint(),
            knobs=repro_knobs(),
            counters=dict(counters or {}),
            memory=dict(memory or {}),
            meta=dict(meta or {}),
        )

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "kind": self.kind,
            "created_unix": self.created_unix,
            "git_sha": self.git_sha,
            "host": self.host,
            "knobs": self.knobs,
            "phases": self.phases,
            "counters": self.counters,
            "memory": self.memory,
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "RunRecord":
        """Parse + validate one record; raises :class:`LedgerError` if unusable."""
        if not isinstance(doc, dict):
            raise LedgerError(f"record must be an object, got {type(doc).__name__}")
        version = doc.get("schema_version")
        if not isinstance(version, int):
            raise LedgerError("record missing integer schema_version")
        if version > SCHEMA_VERSION:
            raise LedgerError(
                f"record schema_version {version} is newer than supported "
                f"{SCHEMA_VERSION}"
            )
        kind = doc.get("kind")
        if not isinstance(kind, str) or not kind:
            raise LedgerError("record missing kind")
        phases = doc.get("phases")
        if not isinstance(phases, dict):
            raise LedgerError("record missing phases dict")
        clean_phases: dict[str, float] = {}
        for name, secs in phases.items():
            if not isinstance(secs, (int, float)) or isinstance(secs, bool):
                raise LedgerError(f"phase {name!r} has non-numeric time {secs!r}")
            clean_phases[str(name)] = float(secs)
        return cls(
            kind=kind,
            phases=clean_phases,
            schema_version=version,
            created_unix=float(doc.get("created_unix") or 0.0),
            git_sha=doc.get("git_sha"),
            host=doc.get("host") or {},
            knobs=doc.get("knobs") or {},
            counters=doc.get("counters") or {},
            memory=doc.get("memory") or {},
            meta=doc.get("meta") or {},
        )


class Ledger:
    """Append-only JSONL file of :class:`RunRecord` lines.

    ``skipped`` counts lines the last :meth:`records` call could not parse
    (corrupt JSON, future schema); they are reported, never fatal.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self.skipped = 0

    def append(self, record: RunRecord) -> RunRecord:
        """Append one record (creating the file and parent dirs on demand).

        The full line goes through a single ``O_APPEND`` ``os.write``:
        POSIX guarantees the seek+write is atomic with respect to other
        appenders, so concurrent writers (a process-parallel QA sweep,
        racing CI shards) can share one ledger file without interleaving
        partial lines — the same discipline as the event-stream shards.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(record.to_dict(), sort_keys=True) + "\n"
        fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, line.encode())
        finally:
            os.close(fd)
        return record

    def records(self, kind: str | None = None) -> list[RunRecord]:
        """Every parseable record, oldest first, optionally filtered by kind."""
        self.skipped = 0
        if not self.path.exists():
            return []
        out: list[RunRecord] = []
        with open(self.path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = RunRecord.from_dict(json.loads(line))
                except (json.JSONDecodeError, LedgerError):
                    self.skipped += 1
                    continue
                if kind is not None and rec.kind != kind:
                    continue
                out.append(rec)
        return out

    def latest(self, kind: str | None = None) -> RunRecord | None:
        recs = self.records(kind)
        return recs[-1] if recs else None

    def phase_history(
        self, kind: str | None = None, limit: int | None = None
    ) -> dict[str, list[float]]:
        """Per-phase time series across the (optionally ``limit`` newest) runs.

        This is the regression gate's noise model input: enough repeats to
        take a median and a MAD band per phase.
        """
        recs = self.records(kind)
        if limit is not None:
            recs = recs[-limit:]
        out: dict[str, list[float]] = {}
        for rec in recs:
            for name, secs in rec.phases.items():
                out.setdefault(name, []).append(secs)
        return out
