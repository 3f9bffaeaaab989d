"""Workloads, legs and output checks of the paper-pipeline benchmark.

A *leg* is one pipeline run on a workload graph.  Each leg has two forms:

* ``call(g)`` — the public entry point a user calls (timed untraced);
* ``staged(g, tracer)`` — the same pipeline, calling each layer's public
  function in pipeline order, with the benchmark's own spans around those
  calls.  Its output must be bit-identical to ``call(g)``.

Nothing here adds tracing inside ``repro`` or imports ``repro.obs``: the
spans are recorded by :class:`Tracer`, in memory, and written out by
``run.py`` as Chrome trace_event JSON.
"""

from __future__ import annotations

import dataclasses
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

from repro import datasets
from repro.apsp import (
    ReducedDistanceOracle,
    assemble_full_matrix,
    bcc_apsp,
    build_component_tables,
    ear_apsp_full,
    extend_reduced_distances,
    peel_pendants,
)
from repro.decomposition import biconnected_components, reduce_graph
from repro.decomposition.biconnected import BCCDecomposition
from repro.graph.csr import CSRGraph
from repro.hetero import (
    HeteroMCBResult,
    Platform,
    mcb_with_trace,
    run_mcb_on_platforms,
    simulate_trace,
)
from repro.mcb import Cycle, MMContext, gf2, minimum_cycle_basis, verify_cycle_basis
from repro.sssp.engine import adjacency_cache, all_pairs

#: Fraction of the paper's Table-1 graph sizes every workload is built at.
SCALE = 0.02

#: Absolute tolerance of the full APSP matrix check (entries are sums of
#: weights in [0.5, 1.5), so summation-order differences are ~1e-13).
APSP_ATOL = 1e-8

#: Relative tolerance between MCB total weights.
MCB_RTOL = 1e-6


# --------------------------------------------------------------------- #
# Span recorder
# --------------------------------------------------------------------- #


class Span:
    """One recorded layer call: name, interval, parent, call id, counts."""

    __slots__ = ("sid", "name", "cat", "call", "leg", "parent", "start", "end", "args")

    def __init__(self, sid, name, cat, call, leg, parent, start):
        self.sid, self.name, self.cat = sid, name, cat
        self.call, self.leg, self.parent = call, leg, parent
        self.start, self.end = start, start
        self.args: dict[str, float] = {}

    @property
    def dur(self) -> int:
        return self.end - self.start

    def __setitem__(self, key: str, value: float) -> None:
        self.args[key] = value


class Tracer:
    """In-memory span recorder; spans of one call share ``call`` id."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._call = -1
        self._leg = ""

    def call(self, leg: str):
        """Root span of one leg call; starts a new call id."""
        self._call += 1
        self._leg = leg
        return self.span(leg, cat="bench")

    @contextmanager
    def span(self, name: str, cat: str | None = None) -> Iterator[Span]:
        parent = self._stack[-1].sid if self._stack else None
        rec = Span(len(self.spans), name, cat or name.split(".", 1)[0], self._call,
                   self._leg, parent, time.perf_counter_ns())
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter_ns()
            self._stack.pop()


def _traced_bcc(bcc: BCCDecomposition, tr: Tracer) -> BCCDecomposition:
    """``bcc`` whose ``component_subgraph`` calls are spanned as
    ``decomposition.bcc`` (component extraction is decomposition work, even
    when ``build_component_tables`` does it)."""

    class _Traced(BCCDecomposition):
        def component_subgraph(self, g, comp_id):
            with tr.span("decomposition.bcc"):
                return super().component_subgraph(g, comp_id)

    return _Traced(**{f.name: getattr(bcc, f.name) for f in dataclasses.fields(bcc)})


def _bcc(g: CSRGraph, tr: Tracer) -> BCCDecomposition:
    with tr.span("decomposition.bcc") as s:
        bcc = biconnected_components(g)
    s["components"] = bcc.count
    s["aps"] = len(bcc.articulation_points)
    return _traced_bcc(bcc, tr)


def _all_pairs(g: CSRGraph, tr: Tracer) -> np.ndarray:
    with tr.span("sssp.all_pairs") as s:
        out = all_pairs(g)
    s["sources"] = g.n
    return out


# --------------------------------------------------------------------- #
# Staged APSP pipelines (Figure 2)
# --------------------------------------------------------------------- #


def staged_ours(g: CSRGraph, tr: Tracer) -> np.ndarray:
    """``ear_apsp_full(g)`` layer by layer: reduce, simplify, SSSP, extend."""
    with tr.span("decomposition.reduce") as s:
        red = reduce_graph(g)
    s["removed"] = red.n_removed
    s["chains"] = len(red.chains)
    with tr.span("graph.simplify"):
        simple = red.simple_graph()
    s_r = _all_pairs(simple, tr)
    with tr.span("apsp.extend"):
        return extend_reduced_distances(red, s_r)


def composed(g: CSRGraph) -> np.ndarray:
    """The Section 2.2 per-BCC ear pipeline, assembled to a full matrix."""
    return assemble_full_matrix(g, build_component_tables(g))


def staged_composed(g: CSRGraph, tr: Tracer) -> np.ndarray:
    """:func:`composed` layer by layer; each component runs :func:`staged_ours`
    (exactly what ``solve_component`` runs) inside the AP-closure call."""
    bcc = _bcc(g, tr)
    with tr.span("apsp.ap_closure"):
        ct = build_component_tables(g, solver=lambda sub: staged_ours(sub, tr), bcc=bcc)
    with tr.span("apsp.assemble"):
        return assemble_full_matrix(g, ct)


def baseline_apsp(g: CSRGraph) -> np.ndarray:
    """Banerjee et al.: BCC split, pendant peeling, plain SSSP per component."""
    return bcc_apsp(g, peel=True)


def staged_baseline_apsp(g: CSRGraph, tr: Tracer) -> np.ndarray:
    """``bcc_apsp(g, peel=True)`` layer by layer.  Embedding the core matrix
    and re-attaching pendants have no public entry, so they stay in the root
    span's self time (``unattributed_s``)."""
    with tr.span("apsp.peel") as s:
        core, core_ids, peel_ops = peel_pendants(g)
    s["pendants"] = len(peel_ops)
    n = g.n
    out = np.full((n, n), np.inf, dtype=np.float64)
    if core.n:
        bcc = _bcc(core, tr)
        with tr.span("apsp.ap_closure"):
            ct = build_component_tables(
                core, solver=lambda sub: _all_pairs(sub, tr), bcc=bcc
            )
        with tr.span("apsp.assemble"):
            core_mat = assemble_full_matrix(core, ct)
        out[np.ix_(core_ids, core_ids)] = core_mat
    for v, u, w in reversed(peel_ops):
        row = out[u, :] + w
        out[v, :] = row
        out[:, v] = row
        out[v, v] = 0.0
    np.fill_diagonal(out, 0.0)
    return out


# --------------------------------------------------------------------- #
# Staged MCB pipelines (Table 2)
# --------------------------------------------------------------------- #


def _staged_mm(g: CSRGraph, tr: Tracer) -> list[Cycle]:
    """``mm_mcb(g)`` phase by phase, keeping its two correctness checks."""
    with tr.span("mcb.setup") as s:
        ctx = MMContext(g)
        if ctx.f == 0:
            return []
        store = ctx.new_store()
        witnesses = gf2.identity(ctx.f)
    s["fvs"] = len(ctx.fvs)
    s["candidates"] = len(ctx.cand_e)
    cycles: list[Cycle] = []
    for i in range(ctx.f):
        with tr.span("mcb.labels"):
            s_pad = ctx.witness_edge_bits(witnesses[i])
            labels = ctx.compute_labels(s_pad)
        tested = store.stats.candidates_tested
        with tr.span("mcb.scan") as s:
            cand = store.scan_and_remove(ctx.scan_predicate(labels, s_pad))
        s["tested"] = store.stats.candidates_tested - tested
        if cand is None:
            raise RuntimeError(
                "candidate family does not span the cycle space "
                "(disable lca_filter or report a bug)"
            )
        with tr.span("mcb.reconstruct"):
            cyc, c_vec = ctx.reconstruct(cand)
        if gf2.dot(c_vec, witnesses[i]) != 1:
            raise AssertionError("selected cycle is orthogonal to its witness")
        cycles.append(cyc)
        with tr.span("mcb.update") as s:
            s["flips"] = ctx.update_witnesses(witnesses, i, c_vec)
    return cycles


def staged_mcb(g: CSRGraph, tr: Tracer, use_ear: bool) -> list[Cycle]:
    """``minimum_cycle_basis(g, use_ear=...)`` layer by layer."""
    bcc = _bcc(g, tr)
    basis: list[Cycle] = []
    for cid in range(bcc.count):
        comp_eids = bcc.component_edges[cid]
        has_loop = bool(np.any(g.edge_u[comp_eids] == g.edge_v[comp_eids]))
        if comp_eids.size < 2 and not has_loop:
            continue  # a bridge: acyclic
        sub, _ = bcc.component_subgraph(g, cid)
        if sub.cycle_space_dimension() == 0:
            continue
        red = None
        solve_on = sub
        if use_ear:
            with tr.span("decomposition.reduce") as s:
                red = reduce_graph(sub)
            s["removed"] = red.n_removed
            s["chains"] = len(red.chains)
            solve_on = red.graph
        sub_cycles = _staged_mm(solve_on, tr)
        with tr.span("mcb.expand"):
            for cyc in sub_cycles:
                sub_eids = red.expand_cycle(cyc.edge_ids) if red is not None else cyc.edge_ids
                basis.append(
                    Cycle(
                        edge_ids=np.sort(comp_eids[sub_eids]),
                        weight=cyc.weight,
                        meta={"component": cid, **cyc.meta},
                    )
                )
    return basis


def staged_platforms(g: CSRGraph, tr: Tracer) -> HeteroMCBResult:
    """``run_mcb_on_platforms(g)``: one recorded ear-MCB run, then a replay
    of its work trace on each Table-2 platform's virtual clock."""
    with tr.span("hetero.record"):
        cycles, trace = mcb_with_trace(g, use_ear=True)
    timings = {}
    for p in (Platform.sequential(), Platform.multicore(), Platform.gpu(),
              Platform.heterogeneous()):
        with tr.span("hetero.simulate"):
            timings[p.name] = simulate_trace(trace, p)
    return HeteroMCBResult(cycles=cycles, trace=trace, timings=timings)


# --------------------------------------------------------------------- #
# Output checks
# --------------------------------------------------------------------- #


def apsp_ok(out: Any, ref: np.ndarray) -> bool:
    """Whole ``n × n`` matrix within :data:`APSP_ATOL` of the reference
    (``inf`` must match ``inf``)."""
    return (
        isinstance(out, np.ndarray)
        and out.shape == ref.shape
        and bool(np.isclose(out, ref, rtol=0.0, atol=APSP_ATOL).all())
    )


def basis_ok(g: CSRGraph, cycles: Any, ref_weight: float) -> bool:
    """A verified cycle basis whose total weight matches the reference."""
    if not isinstance(cycles, list):
        return False
    rep = verify_cycle_basis(g, cycles)
    return rep.ok and abs(rep.total_weight - ref_weight) <= MCB_RTOL * abs(ref_weight)


def virtual_times(res: HeteroMCBResult) -> dict[str, float]:
    """Virtual makespan per platform, keyed by metric-safe platform name."""
    return {name.replace("+", "_"): r.total_time for name, r in res.timings.items()}


def same_output(a: Any, b: Any) -> bool:
    """Bit-identical outputs: matrices, cycle lists cycle for cycle, or
    platform results (cycles plus exact virtual times)."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    if isinstance(a, HeteroMCBResult):
        return (
            isinstance(b, HeteroMCBResult)
            and same_output(a.cycles, b.cycles)
            and virtual_times(a) == virtual_times(b)
        )
    return (
        isinstance(b, list)
        and len(a) == len(b)
        and all(
            np.array_equal(x.edge_ids, y.edge_ids) and x.weight == y.weight
            for x, y in zip(a, b)
        )
    )


# --------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Leg:
    name: str
    call: Callable[[CSRGraph], Any]
    staged: Callable[[CSRGraph, Tracer], Any]


LEG_NAMES = ("ours", "composed", "baseline")

FIG2_LEGS = (
    Leg("ours", ear_apsp_full, staged_ours),
    Leg("composed", composed, staged_composed),
    Leg("baseline", baseline_apsp, staged_baseline_apsp),
)

MCB_LEGS = (
    Leg("ours", lambda g: minimum_cycle_basis(g, use_ear=True),
        lambda g, tr: staged_mcb(g, tr, use_ear=True)),
    Leg("composed", run_mcb_on_platforms, staged_platforms),
    Leg("baseline", lambda g: minimum_cycle_basis(g, use_ear=False),
        lambda g, tr: staged_mcb(g, tr, use_ear=False)),
)


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    kind: str  # "fig2" or "mcb"
    why: str

    @property
    def legs(self) -> tuple[Leg, ...]:
        return FIG2_LEGS if self.kind == "fig2" else MCB_LEGS

    def spec(self, seed: int | None = None) -> datasets.DatasetSpec:
        """The Table-1 spec, re-seeded (``None`` keeps the spec's own seed)."""
        spec = next(s for s in datasets.TABLE1 if s.name == self.dataset)
        return spec if seed is None else dataclasses.replace(spec, seed=seed)

    def graph(self, seed: int | None = None) -> CSRGraph:
        return self.spec(seed).generate(SCALE)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fig2-core", "OPF_3754", "fig2",
                 "one BCC, 2% chain vertices: SSSP dominates, reduction is pure "
                 "overhead; extend/AP closure/assemble idle; matrix fits in L2"),
        Workload("fig2-chain", "Wordnet3", "fig2",
                 "12 BCCs, 77% chain vertices: the ear mechanism's best case; "
                 "extend and assemble busy; matrix exceeds L2"),
        Workload("table2-mcb", "as-22july06", "mcb",
                 "Table-2 row: MCB with vs without ear reduction, and the "
                 "virtual four-platform replay; the only workload running mcb.*"),
    )
}


class Checker:
    """Full output check for one workload graph.

    APSP outputs are compared with the engine's own ``all_pairs(g)``.  MCB
    bases must verify and weigh what both legs' reference bases weigh
    (``outputs`` may supply those, from calls already made); platform runs
    must also repeat the first run's virtual times exactly.
    """

    def __init__(self, workload: Workload, g: CSRGraph, outputs: dict | None = None) -> None:
        self.g = g
        self.kind = workload.kind
        self.problem = ""
        self.ref_virtual: dict[str, float] | None = None
        if self.kind == "fig2":
            adjacency_cache().clear()
            self.ref = all_pairs(g, cache=False)
            return
        outputs = outputs or {}
        with_ear = outputs.get("ours")
        if with_ear is None:
            with_ear = minimum_cycle_basis(g, use_ear=True)
        without = outputs.get("baseline")
        if without is None:
            without = minimum_cycle_basis(g, use_ear=False)
        self.ref_weight = float(sum(c.weight for c in with_ear))
        if not basis_ok(g, without, self.ref_weight) or not basis_ok(g, with_ear, self.ref_weight):
            self.problem = "MCB legs disagree on the basis weight"

    def __call__(self, leg: str, out: Any) -> bool:
        if self.kind == "fig2":
            return apsp_ok(out, self.ref)
        if self.problem:
            return False
        if leg != "composed":
            return basis_ok(self.g, out, self.ref_weight)
        if not (isinstance(out, HeteroMCBResult) and basis_ok(self.g, out.cycles, self.ref_weight)):
            return False
        if self.ref_virtual is None:
            self.ref_virtual = virtual_times(out)
        return virtual_times(out) == self.ref_virtual


def graph_stats(g: CSRGraph) -> dict[str, int]:
    """n, m, BCC, AP and ear-removed counts of a workload graph."""
    bcc = biconnected_components(g)
    red = reduce_graph(g)
    return {
        "n": g.n,
        "m": g.m,
        "f": g.cycle_space_dimension(),
        "bccs": bcc.count,
        "aps": len(bcc.articulation_points),
        "removed": red.n_removed,
        "reduced_n": red.graph.n,
    }


def store_bytes(g: CSRGraph) -> int:
    """Table 1 memory: ``ReducedDistanceOracle`` entries at 4 bytes each."""
    return ReducedDistanceOracle(g).memory_bytes()


# --------------------------------------------------------------------- #
# Per-layer metrics
# --------------------------------------------------------------------- #

#: (suffix, unit) of every per-layer metric, prefixed by each leg name.
LAYER_METRICS = (
    ("decomposition.reduce.self_s", "s"),
    ("decomposition.reduce.removed", "count"),
    ("decomposition.reduce.chains", "count"),
    ("graph.simplify.self_s", "s"),
    ("sssp.all_pairs.self_s", "s"),
    ("sssp.all_pairs.sources", "count"),
    ("sssp.adjacency_builds", "count"),
    ("apsp.extend.self_s", "s"),
    ("decomposition.bcc.self_s", "s"),
    ("decomposition.bcc.components", "count"),
    ("decomposition.bcc.aps", "count"),
    ("apsp.ap_closure.self_s", "s"),
    ("apsp.assemble.self_s", "s"),
    ("mcb.setup.self_s", "s"),
    ("mcb.setup.fvs", "count"),
    ("mcb.setup.candidates", "count"),
    ("mcb.scan.self_s", "s"),
    ("mcb.scan.tested", "count"),
    ("mcb.scan.useful_ratio", "ratio"),
    ("mcb.labels.self_s", "s"),
    ("mcb.reconstruct.self_s", "s"),
    ("mcb.update.self_s", "s"),
    ("mcb.update.flips", "count"),
    ("mcb.expand.self_s", "s"),
    ("mcb.phases", "count"),
    ("hetero.record.self_s", "s"),
    ("hetero.simulate.self_s", "s"),
    ("unattributed_s", "s"),
    ("root_s", "s"),
    ("coverage", "ratio"),
)

BASELINE_ONLY = (("apsp.peel.self_s", "s"), ("apsp.peel.pendants", "count"))

VIRTUAL_PLATFORMS = ("sequential", "multicore", "gpu", "cpu_gpu")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name the traced run prints, with its unit."""
    out = {}
    for leg in LEG_NAMES:
        extra = BASELINE_ONLY if leg == "baseline" else ()
        for suffix, unit in LAYER_METRICS + extra:
            out[f"{leg}.{suffix}"] = unit
    for p in VIRTUAL_PLATFORMS:
        out[f"hetero.virtual_s.{p}"] = "virtual_s"
    return out


def call_totals(spans: list[Span]) -> dict[int, dict[str, float]]:
    """Per call id: layer self seconds and counts, summed over the call.

    A span's self time is its duration minus the durations of its direct
    children; the root's self time is ``unattributed_s``.
    """
    child_ns: dict[int, int] = {}
    for s in spans:
        if s.parent is not None:
            child_ns[s.parent] = child_ns.get(s.parent, 0) + s.dur
    totals: dict[int, dict[str, float]] = {}
    for s in spans:
        t = totals.setdefault(s.call, {})
        self_s = (s.dur - child_ns.get(s.sid, 0)) / 1e9
        if s.parent is None:
            t["root_s"] = s.dur / 1e9
            t["unattributed_s"] = self_s
            t.update(s.args)  # root args carry whole-call counts
            continue
        key = f"{s.name}.self_s"
        t[key] = t.get(key, 0.0) + self_s
        if s.name == "mcb.scan":  # one scan per Mehlhorn–Michail phase
            t["mcb.phases"] = t.get("mcb.phases", 0.0) + 1
        for k, v in s.args.items():
            key = f"{s.name}.{k}"
            t[key] = t.get(key, 0.0) + v
    for t in totals.values():
        t["coverage"] = 1.0 - t["unattributed_s"] / t["root_s"] if t["root_s"] else 0.0
        tested = t.get("mcb.scan.tested", 0.0)
        t["mcb.scan.useful_ratio"] = t.get("mcb.phases", 0.0) / tested if tested else 0.0
    return totals
