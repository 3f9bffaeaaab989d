"""Differential oracle: every implementation pair must agree.

APSP: all registered implementations are run on the same graph and their
distance matrices compared against the registry's reference entry —
infinities must match exactly, finite entries to tight tolerance (the
implementations legitimately differ in summation order).  MCB: every implementation must return a *verified* cycle basis
(:func:`repro.mcb.verify.verify_cycle_basis`) whose total support weight —
the quantity Lemma 3.1 preserves, and which is unique for minimum bases
even when the basis itself is not — matches the reference's.

New backends auto-enroll by calling :func:`register_apsp` /
:func:`register_mcb` (or using them as decorators); the conformance suite
iterates the registries, so a registered implementation is covered with no
further test changes.  On any disagreement the failing graph is serialized
through :mod:`repro.graph.io` (``REPRO_QA_ARTIFACTS`` or the
``artifacts_dir`` argument names the directory) so the exact instance can
be replayed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from ..graph.csr import CSRGraph

__all__ = [
    "Implementation",
    "Disagreement",
    "DifferentialReport",
    "APSP_REGISTRY",
    "MCB_REGISTRY",
    "register_apsp",
    "register_mcb",
    "matrices_agree",
    "run_apsp_differential",
    "run_mcb_differential",
    "run_suite",
]

#: Relative tolerance for cross-implementation comparisons.  Distances are
#: sums of at most ``n`` doubles, so anything past accumulated rounding is
#: a real disagreement.
RTOL = 1e-9
ATOL = 1e-12


@dataclass(frozen=True)
class Implementation:
    """A registered APSP or MCB implementation.

    ``max_n`` caps the graphs this implementation is asked to solve
    (Horton's candidate enumeration is O(n·m·f) — fine as an oracle on
    small graphs, pointless on large ones); ``stride`` runs it on every
    k-th corpus graph only (for implementations with a high fixed cost per
    call).  ``reference`` marks the registry's comparison baseline.
    """

    name: str
    fn: Callable[[CSRGraph], object]
    max_n: int | None = None
    stride: int = 1
    reference: bool = False


@dataclass(frozen=True)
class Disagreement:
    """One implementation disagreeing with the reference on one graph."""

    impl: str
    reference: str
    graph_name: str
    graph: CSRGraph
    detail: str
    artifact: str | None = None

    def __str__(self) -> str:
        loc = f" [saved: {self.artifact}]" if self.artifact else ""
        return (
            f"{self.impl} vs {self.reference} on {self.graph_name} "
            f"(n={self.graph.n}, m={self.graph.m}): {self.detail}{loc}"
        )


@dataclass
class DifferentialReport:
    """Outcome of one differential sweep."""

    kind: str
    graphs_run: int = 0
    comparisons: int = 0
    implementations: list[str] = field(default_factory=list)
    skipped: int = 0
    disagreements: list[Disagreement] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def summary(self) -> str:
        head = (
            f"{self.kind}: {len(self.implementations)} implementations "
            f"({', '.join(self.implementations)}), {self.graphs_run} graphs, "
            f"{self.comparisons} comparisons, {self.skipped} skipped"
        )
        if self.ok:
            return head + " — all agree"
        lines = [head, f"{len(self.disagreements)} DISAGREEMENTS:"]
        lines += [f"  - {d}" for d in self.disagreements]
        return "\n".join(lines)


# ------------------------------------------------------------------ #
# Registries
# ------------------------------------------------------------------ #

APSP_REGISTRY: dict[str, Implementation] = {}
MCB_REGISTRY: dict[str, Implementation] = {}


def _register(
    registry: dict[str, Implementation],
    name: str,
    fn: Callable | None,
    **kwargs,
):
    if fn is None:  # decorator form
        return lambda f: _register(registry, name, f, **kwargs)
    if kwargs.get("reference"):
        for impl in registry.values():
            if impl.reference:
                raise ValueError(f"registry already has a reference: {impl.name}")
    registry[name] = Implementation(name=name, fn=fn, **kwargs)
    return fn


def register_apsp(name: str, fn: Callable | None = None, **kwargs):
    """Enroll an APSP implementation (callable ``g -> (n, n) ndarray``)."""
    return _register(APSP_REGISTRY, name, fn, **kwargs)


def register_mcb(name: str, fn: Callable | None = None, **kwargs):
    """Enroll an MCB implementation (callable ``g -> list[Cycle]``)."""
    return _register(MCB_REGISTRY, name, fn, **kwargs)


def _reference_of(registry: dict[str, Implementation]) -> Implementation:
    for impl in registry.values():
        if impl.reference:
            return impl
    raise ValueError("registry has no reference implementation")


def _all_pairs(n: int) -> np.ndarray:
    """Every ordered vertex pair as a ``(n*n, 2)`` array (row-major)."""
    uu, vv = np.meshgrid(
        np.arange(n, dtype=np.int64), np.arange(n, dtype=np.int64), indexing="ij"
    )
    return np.column_stack([uu.ravel(), vv.ravel()])


def _oracle_bulk_matrix(g: CSRGraph) -> np.ndarray:
    from ..apsp.oracle import DistanceOracle

    return DistanceOracle(g).query_many(_all_pairs(g.n)).reshape(g.n, g.n)


def _reduced_oracle_bulk_matrix(g: CSRGraph) -> np.ndarray:
    from ..apsp.reduced_oracle import ReducedDistanceOracle

    return ReducedDistanceOracle(g).query_many(_all_pairs(g.n)).reshape(g.n, g.n)


def _builtin_registrations() -> None:
    # Imported here: the apsp/mcb packages must not be a hard import cost
    # (or cycle) for anyone importing repro.qa.strategies alone.
    from ..apsp import (
        bcc_apsp,
        blocked_floyd_warshall,
        dijkstra_apsp,
        ear_apsp_full,
        floyd_warshall,
        partition_apsp,
    )
    from ..hetero.apsp_runner import apsp_with_trace
    from ..hetero.mcb_runner import mcb_with_trace
    from ..mcb import depina_mcb, horton_mcb, minimum_cycle_basis, mm_mcb

    register_apsp("dijkstra-scipy", dijkstra_apsp, reference=True)
    register_apsp("dijkstra-python", lambda g: dijkstra_apsp(g, engine="python"))
    register_apsp("dense-fw", floyd_warshall, max_n=128)
    register_apsp("blocked-fw", lambda g: blocked_floyd_warshall(g, block=8), max_n=128)
    register_apsp("ear", ear_apsp_full)
    # The traced drivers behind Table 2 and Figures 5-6.
    register_apsp("hetero-apsp", lambda g: apsp_with_trace(g)[0])
    register_apsp("partition", partition_apsp)
    register_apsp("bcc", bcc_apsp)
    # Bulk-query fast paths: the vectorized oracle query_many over every
    # pair must reproduce the full matrix (and is additionally asserted
    # bit-identical to the scalar query loop by tests/test_bulk_query.py).
    register_apsp("oracle-bulk", _oracle_bulk_matrix, max_n=96)
    register_apsp("reduced-oracle-bulk", _reduced_oracle_bulk_matrix, max_n=96)

    register_mcb("horton", horton_mcb, max_n=24, reference=True)
    register_mcb("depina", depina_mcb)
    register_mcb("mm", mm_mcb)
    register_mcb("mm-unfiltered", lambda g: mm_mcb(g, lca_filter=False))
    register_mcb("ear-mm", lambda g: minimum_cycle_basis(g, algorithm="mm"))
    register_mcb("ear-depina", lambda g: minimum_cycle_basis(g, algorithm="depina"))
    register_mcb("hetero-mcb", lambda g: mcb_with_trace(g)[0])


_builtin_registrations()


# ------------------------------------------------------------------ #
# Comparison semantics
# ------------------------------------------------------------------ #


def matrices_agree(a: np.ndarray, b: np.ndarray) -> str | None:
    """None when two distance matrices agree; else a description.

    Reachability (infinity pattern) must match exactly; finite entries to
    ``RTOL``/``ATOL``.
    """
    if a.shape != b.shape:
        return f"shape mismatch: {a.shape} vs {b.shape}"
    fin_a = np.isfinite(a)
    fin_b = np.isfinite(b)
    if not np.array_equal(fin_a, fin_b):
        bad = int(np.sum(fin_a != fin_b))
        return f"reachability mismatch on {bad} pairs"
    if not fin_a.any():
        return None
    x, y = a[fin_a], b[fin_a]
    close = np.isclose(x, y, rtol=RTOL, atol=ATOL)
    if not close.all():
        delta = float(np.max(np.abs(x[~close] - y[~close])))
        return f"{int((~close).sum())} finite entries differ (max |Δ| = {delta:g})"
    return None


def _basis_weight(g: CSRGraph, cycles) -> float:
    return float(sum(c.support_weight(g) for c in cycles))


def _artifact_path(artifacts_dir: str | Path | None) -> Path | None:
    env = os.environ.get("REPRO_QA_ARTIFACTS")
    chosen = artifacts_dir if artifacts_dir is not None else env
    if not chosen:
        return None
    p = Path(chosen)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _save_artifact(
    out_dir: Path | None,
    kind: str,
    graph_name: str,
    g: CSRGraph,
    context: dict,
) -> str | None:
    """Serialize a disagreeing graph + context for replay; returns the path."""
    if out_dir is None:
        return None
    from ..graph import io as graph_io

    slug = "".join(ch if ch.isalnum() or ch in "-_" else "-" for ch in graph_name)
    base = out_dir / f"{kind}-{slug}"
    graph_io.save_npz(g, base.with_suffix(".npz"))
    base.with_suffix(".json").write_text(json.dumps(context, indent=2, default=str))
    return str(base.with_suffix(".npz"))


# ------------------------------------------------------------------ #
# Runners
# ------------------------------------------------------------------ #


def _select(
    registry: dict[str, Implementation], impls: Sequence[str] | None
) -> list[Implementation]:
    if impls is None:
        return list(registry.values())
    return [registry[name] for name in impls]


def run_apsp_differential(
    graphs: Iterable[tuple[str, CSRGraph]],
    impls: Sequence[str] | None = None,
    artifacts_dir: str | Path | None = None,
) -> DifferentialReport:
    """Cross-check every registered APSP implementation on ``graphs``."""
    selected = _select(APSP_REGISTRY, impls)
    ref = _reference_of(APSP_REGISTRY)
    if ref.name not in [i.name for i in selected]:
        selected.insert(0, ref)
    out_dir = _artifact_path(artifacts_dir)
    report = DifferentialReport(kind="apsp", implementations=[i.name for i in selected])
    for gi, (name, g) in enumerate(graphs):
        report.graphs_run += 1
        want = np.asarray(ref.fn(g), dtype=np.float64)
        for impl in selected:
            if impl.name == ref.name:
                continue
            if impl.max_n is not None and g.n > impl.max_n:
                report.skipped += 1
                continue
            if gi % impl.stride != 0:
                report.skipped += 1
                continue
            got = np.asarray(impl.fn(g), dtype=np.float64)
            report.comparisons += 1
            detail = matrices_agree(want, got)
            if detail is not None:
                artifact = _save_artifact(
                    out_dir,
                    "apsp",
                    name,
                    g,
                    {"impl": impl.name, "reference": ref.name, "detail": detail},
                )
                report.disagreements.append(
                    Disagreement(impl.name, ref.name, name, g, detail, artifact)
                )
    return report


def run_mcb_differential(
    graphs: Iterable[tuple[str, CSRGraph]],
    impls: Sequence[str] | None = None,
    artifacts_dir: str | Path | None = None,
) -> DifferentialReport:
    """Cross-check every registered MCB implementation on ``graphs``.

    Each implementation's output must be a verified basis; basis *support
    weights* must agree with the reference (the minimum total weight is
    unique even when the basis itself is not).
    """
    from ..mcb.verify import verify_cycle_basis

    selected = _select(MCB_REGISTRY, impls)
    ref = _reference_of(MCB_REGISTRY)
    if ref.name not in [i.name for i in selected]:
        selected.insert(0, ref)
    out_dir = _artifact_path(artifacts_dir)
    report = DifferentialReport(kind="mcb", implementations=[i.name for i in selected])
    for gi, (name, g) in enumerate(graphs):
        report.graphs_run += 1
        # Baseline weight: the reference when it runs at this size, else the
        # first implementation that does (so large graphs still cross-check).
        baseline: tuple[str, float] | None = None
        if ref.max_n is None or g.n <= ref.max_n:
            baseline = (ref.name, _basis_weight(g, ref.fn(g)))
        for impl in selected:
            if impl.name == ref.name:
                continue
            if impl.max_n is not None and g.n > impl.max_n:
                report.skipped += 1
                continue
            if gi % impl.stride != 0:
                report.skipped += 1
                continue
            cycles = impl.fn(g)
            report.comparisons += 1
            rep = verify_cycle_basis(g, cycles)
            detail = None
            if not rep.ok:
                detail = f"not a cycle basis: {rep.message}"
            else:
                w = _basis_weight(g, cycles)
                if baseline is None:
                    baseline = (impl.name, w)
                elif not np.isclose(w, baseline[1], rtol=RTOL, atol=ATOL):
                    detail = (
                        f"basis weight {w:.17g} != {baseline[0]}'s {baseline[1]:.17g}"
                    )
            if detail is not None:
                artifact = _save_artifact(
                    out_dir,
                    "mcb",
                    name,
                    g,
                    {"impl": impl.name, "reference": ref.name, "detail": detail},
                )
                report.disagreements.append(
                    Disagreement(impl.name, ref.name, name, g, detail, artifact)
                )
    return report


def run_suite(
    count: int = 200,
    seed: int = 0,
    mcb_count: int | None = None,
    artifacts_dir: str | Path | None = None,
) -> dict[str, DifferentialReport]:
    """The full conformance sweep: APSP + MCB differential on one corpus.

    MCB implementations are superlinear in the cycle-space dimension, so
    they run on the first ``mcb_count`` (default: half) corpus graphs.
    """
    from .strategies import corpus

    graphs = corpus(count=count, seed=seed)
    if mcb_count is None:
        mcb_count = max(1, count // 2)
    return {
        "apsp": run_apsp_differential(graphs, artifacts_dir=artifacts_dir),
        "mcb": run_mcb_differential(graphs[:mcb_count], artifacts_dir=artifacts_dir),
    }
