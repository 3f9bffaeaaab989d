#!/usr/bin/env python
"""Run the conformance suite with invariants armed and artifacts saved.

Wraps ``python -m pytest -m qa`` with:

* ``REPRO_CHECK_INVARIANTS=1`` so every mid-pipeline structural contract
  (ear partition, reduction maximality, basis independence, de Pina
  witness orthogonality) is checked while the differential oracle runs;
* ``REPRO_QA_ARTIFACTS`` pointed at an artifact directory so any
  disagreeing graph is serialized (``repro.graph.io`` npz + context json)
  and can be replayed exactly.

Usage::

    python scripts/run_qa.py [--artifacts DIR] [--seed N] [pytest args...]

Extra arguments are forwarded to pytest (e.g. ``-k differential -x``).
Exits with pytest's status; on failure the saved artifacts are listed.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--artifacts",
        default=str(REPO_ROOT / "qa-artifacts"),
        help="directory for disagreeing-graph repro files (default: ./qa-artifacts)",
    )
    parser.add_argument("--seed", type=int, default=None, help="session seed (--repro-seed)")
    args, pytest_args = parser.parse_known_args(argv)

    env = dict(os.environ)
    env["REPRO_CHECK_INVARIANTS"] = "1"
    env["REPRO_QA_ARTIFACTS"] = args.artifacts
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep * bool(env.get("PYTHONPATH")) + env.get("PYTHONPATH", "")

    cmd = [sys.executable, "-m", "pytest", "-m", "qa", "-q"]
    if args.seed is not None:
        cmd.append(f"--repro-seed={args.seed}")
    cmd += pytest_args

    print(f"$ REPRO_CHECK_INVARIANTS=1 REPRO_QA_ARTIFACTS={args.artifacts} {' '.join(cmd)}")
    status = subprocess.call(cmd, cwd=REPO_ROOT, env=env)

    artifacts = sorted(Path(args.artifacts).glob("*")) if Path(args.artifacts).exists() else []
    if status != 0 and artifacts:
        print("\nsaved failing-graph artifacts (replay with repro.graph.load_npz):")
        for p in artifacts:
            print(f"  {p}")
    elif status == 0:
        print("conformance OK (invariants on, zero disagreements)")
    return status


if __name__ == "__main__":
    sys.exit(main())
