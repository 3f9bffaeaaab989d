"""Checkable contracts, wired into the library behind an env knob.

Each function raises :class:`InvariantViolation` with a precise message
when a structural contract of the pipeline is broken:

* :func:`check_ear_decomposition` — the ears partition the edge set, walk
  consistency, and the open-ear property (Section 2.1.1).
* :func:`check_reduction` — removed vertices have degree 2 in ``G``,
  chains partition the edges with exact weight preservation, and no
  reduced vertex is left contractible (degree 2 in ``G^r`` without being a
  promoted cycle anchor).
* :func:`check_cycle_basis` — basis size equals ``m − n + c``, every
  element is a genuine cycle-space vector, and the restricted vectors are
  GF(2)-independent.

``REPRO_CHECK_INVARIANTS`` (any of ``1/true/yes/on``) turns on the hooks
embedded in :func:`repro.decomposition.reduce.reduce_graph`,
:func:`repro.decomposition.ear.ear_decomposition`,
:func:`repro.mcb.ear_mcb.minimum_cycle_basis`, and the de Pina witness
loop.  When the knob is off, each hook costs a single dict lookup, so the
checks can ride along in CI at near-zero production cost.
"""

from __future__ import annotations

import os

import numpy as np

from ..graph.csr import CSRGraph
from ..obs import metrics as _metrics

__all__ = [
    "InvariantViolation",
    "invariants_enabled",
    "check_ear_decomposition",
    "check_reduction",
    "check_cycle_basis",
    "maybe_check_ear_decomposition",
    "maybe_check_reduction",
    "maybe_check_cycle_basis",
]

_TRUTHY = {"1", "true", "yes", "on"}

_C_CHECKS = _metrics.counter("qa.invariant_checks")


class InvariantViolation(AssertionError):
    """A structural contract of the pipeline does not hold."""


def invariants_enabled() -> bool:
    """True when ``REPRO_CHECK_INVARIANTS`` is set to a truthy value."""
    return os.environ.get("REPRO_CHECK_INVARIANTS", "").strip().lower() in _TRUTHY


def _fail(message: str) -> None:
    raise InvariantViolation(message)


# ------------------------------------------------------------------ #
# Ear decomposition
# ------------------------------------------------------------------ #


def check_ear_decomposition(g: CSRGraph, dec) -> None:
    """Every edge on exactly one ear; walks consistent; first ear a cycle."""
    counts = np.zeros(g.m, dtype=np.int64)
    for ear in dec.ears:
        np.add.at(counts, ear.edges, 1)
    if np.any(counts != 1):
        missing = int((counts == 0).sum())
        dup = int((counts > 1).sum())
        _fail(
            f"ears do not partition the edge set: {missing} edges uncovered, "
            f"{dup} covered more than once"
        )
    for k, ear in enumerate(dec.ears):
        if ear.vertices.size != ear.edges.size + 1:
            _fail(f"ear {k}: walk has {ear.vertices.size} vertices for {ear.edges.size} edges")
        for i, eid in enumerate(ear.edges):
            a, b = g.edge_endpoints(int(eid))
            u, v = int(ear.vertices[i]), int(ear.vertices[i + 1])
            if {a, b} != {u, v}:
                _fail(f"ear {k}: edge {eid} does not join walk vertices {u}-{v}")
    if not dec.ears[0].is_cycle:
        _fail("first ear is not a cycle")
    if dec.is_open and any(e.is_cycle for e in dec.ears[1:]):
        _fail("decomposition marked open but a later ear is a cycle")


# ------------------------------------------------------------------ #
# Degree-2 reduction
# ------------------------------------------------------------------ #


def check_reduction(red, strict_degree: bool | None = None) -> None:
    """Structural contract of ``reduce_graph``.

    Beyond :meth:`ReducedGraph.validate` (chains partition the edges with
    exact per-chain weight preservation and consistent endpoints), checks
    that every removed vertex has degree 2 in ``G`` and — unless
    ``strict_degree`` is disabled, as it must be for a caller-supplied
    ``keep`` mask — that the reduction is *maximal*: a degree-2 vertex of
    ``G^r`` is only allowed when it is a promoted cycle anchor (it then
    carries a self-loop, which counts 2 toward its degree).
    """
    red.validate()
    g, r = red.original, red.graph
    removed = np.nonzero(~red.kept_mask)[0]
    if removed.size and np.any(g.degree[removed] != 2):
        bad = removed[g.degree[removed] != 2]
        _fail(f"removed vertices with degree != 2 in G: {bad[:5].tolist()}")
    if removed.size:
        ch = red.chain_of[removed]
        if np.any(ch < 0):
            _fail("removed vertex assigned to no chain")
        dl = red.dist_left[removed]
        dr = red.dist_right[removed]
        # A chain's weight is the prefix at its right endpoint.
        cw = red.chain_prefix[red.chain_eptr[ch + 1] + ch]
        if not np.allclose(dl + dr, cw):
            _fail("dist_left + dist_right != chain weight for some removed vertex")
    if strict_degree is None:
        strict_degree = True
    if strict_degree and r.n:
        deg2 = np.nonzero(r.degree == 2)[0]
        loops = np.unique(r.edge_u[r.edge_u == r.edge_v])
        stray = np.setdiff1d(deg2, loops)
        if stray.size:
            _fail(
                "reduced graph is not maximal: degree-2 non-anchor vertices "
                f"{red.kept_ids[stray][:5].tolist()} survive"
            )


# ------------------------------------------------------------------ #
# Minimum cycle basis
# ------------------------------------------------------------------ #


def check_cycle_basis(g: CSRGraph, cycles: list) -> None:
    """Size ``m − n + c``, valid supports, GF(2) independence.

    Weight *minimality* is not checkable without an oracle — that is the
    differential runner's job; this contract is about basis-hood.
    """
    from ..mcb.verify import verify_cycle_basis

    rep = verify_cycle_basis(g, cycles)
    if not rep.ok:
        _fail(f"cycle basis contract violated: {rep.message}")
    for i, c in enumerate(cycles):
        if abs(c.weight - c.support_weight(g)) > 1e-9 * max(1.0, abs(c.weight)):
            _fail(
                f"cycle {i}: accounted weight {c.weight} != support weight "
                f"{c.support_weight(g)}"
            )


# ------------------------------------------------------------------ #
# Hooks (near-zero cost when the knob is off)
# ------------------------------------------------------------------ #


def maybe_check_ear_decomposition(g: CSRGraph, dec) -> None:
    if invariants_enabled():
        _C_CHECKS.inc()
        check_ear_decomposition(g, dec)


def maybe_check_reduction(red, strict_degree: bool | None = None) -> None:
    if invariants_enabled():
        _C_CHECKS.inc()
        check_reduction(red, strict_degree=strict_degree)


def maybe_check_cycle_basis(g: CSRGraph, cycles: list) -> None:
    if invariants_enabled():
        _C_CHECKS.inc()
        check_cycle_basis(g, cycles)
