"""Differential-oracle conformance: every implementation pair agrees.

This is the acceptance surface of the QA subsystem: all registered APSP
and MCB implementations run on a ≥200-graph corpus (adversarial +
randomized families, multigraphs and bridge-heavy structures included)
with zero disagreements.  The corpus seed is the session ``--repro-seed``,
so every run explores a fresh slice of the space yet any failure
reproduces exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import CSRGraph, cycle_graph, load_npz
from repro.qa import strategies
from repro.qa.differential import (
    APSP_REGISTRY,
    MCB_REGISTRY,
    Implementation,
    matrices_agree,
    register_apsp,
    register_mcb,
    run_apsp_differential,
    run_mcb_differential,
    run_suite,
)

from _support import bridge_count

pytestmark = pytest.mark.qa

#: Acceptance floor: the conformance sweep covers at least this many graphs.
CORPUS_COUNT = 200
#: MCB implementations are superlinear in the cycle space; they get the
#: first chunk of the same corpus (still covering every adversarial case —
#: the named cases lead the corpus).
MCB_COUNT = 100


@pytest.fixture(scope="module")
def qa_corpus(request):
    seed = request.config._repro_seed
    return strategies.corpus(count=CORPUS_COUNT, seed=seed)


class TestRegistry:
    def test_apsp_floor(self):
        assert len(APSP_REGISTRY) >= 5
        assert sum(1 for i in APSP_REGISTRY.values() if i.reference) == 1

    def test_mcb_floor(self):
        assert len(MCB_REGISTRY) >= 3
        assert sum(1 for i in MCB_REGISTRY.values() if i.reference) == 1

    def test_duplicate_reference_rejected(self):
        with pytest.raises(ValueError):
            register_apsp("second-ref", lambda g: None, reference=True)
        APSP_REGISTRY.pop("second-ref", None)

    def test_decorator_auto_enrolls(self):
        @register_apsp("enrolled-for-test")
        def impl(g):  # pragma: no cover - never called
            raise NotImplementedError

        try:
            assert APSP_REGISTRY["enrolled-for-test"].fn is impl
        finally:
            del APSP_REGISTRY["enrolled-for-test"]


class TestComparisonSemantics:
    def test_matrices_agree_exact(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert matrices_agree(a, a.copy()) is None

    def test_reachability_mismatch_detected(self):
        a = np.array([[0.0, np.inf], [np.inf, 0.0]])
        b = np.array([[0.0, 5.0], [5.0, 0.0]])
        assert "reachability" in matrices_agree(a, b)

    def test_value_drift_detected(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        b = a * (1 + 1e-6)
        assert "finite entries differ" in matrices_agree(a, b)

    def test_shape_mismatch_detected(self):
        assert "shape" in matrices_agree(np.zeros((2, 2)), np.zeros((3, 3)))


class TestAPSPConformance:
    def test_corpus_zero_disagreements(self, qa_corpus):
        report = run_apsp_differential(qa_corpus)
        assert report.graphs_run >= CORPUS_COUNT
        assert len(report.implementations) >= 5
        assert report.ok, report.summary()

    def test_corpus_includes_adversarial_classes(self, qa_corpus):
        graphs = [g for _, g in qa_corpus]
        assert any(g.has_parallel_edges for g in graphs)
        assert any(g.has_self_loops for g in graphs)
        assert any(bridge_count(g) for g in graphs)


class TestMCBConformance:
    def test_corpus_zero_disagreements(self, qa_corpus):
        report = run_mcb_differential(qa_corpus[:MCB_COUNT])
        assert report.graphs_run >= MCB_COUNT
        assert len(report.implementations) >= 3
        assert report.ok, report.summary()


class TestDisagreementCapture:
    """A deliberately wrong implementation is caught and serialized."""

    def test_broken_apsp_caught_and_artifact_saved(self, tmp_path):
        def skewed(g: CSRGraph) -> np.ndarray:
            from repro.apsp import dijkstra_apsp

            return dijkstra_apsp(g) * 1.001  # subtly wrong everywhere

        register_apsp("broken-for-test", skewed)
        try:
            report = run_apsp_differential(
                strategies.corpus(count=8, seed=0),
                impls=["dijkstra-scipy", "broken-for-test"],
                artifacts_dir=tmp_path,
            )
        finally:
            del APSP_REGISTRY["broken-for-test"]
        assert not report.ok
        bad = report.disagreements[0]
        assert bad.impl == "broken-for-test"
        assert bad.artifact is not None
        replayed = load_npz(bad.artifact)
        assert replayed == bad.graph  # the repro file round-trips exactly

    def test_broken_mcb_caught(self, tmp_path):
        def lossy(g: CSRGraph):
            from repro.mcb import depina_mcb

            return depina_mcb(g)[:-1]  # drop a basis element

        register_mcb("broken-for-test", lossy)
        try:
            report = run_mcb_differential(
                [("triangle-pair", strategies.cactus_graph(2, 3, seed=0))],
                impls=["depina", "broken-for-test"],
                artifacts_dir=tmp_path,
            )
        finally:
            del MCB_REGISTRY["broken-for-test"]
        assert not report.ok
        assert "not a cycle basis" in report.disagreements[0].detail
        assert list(tmp_path.glob("mcb-*.npz"))

    def test_env_artifact_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_QA_ARTIFACTS", str(tmp_path / "art"))
        register_apsp("broken-env-test", lambda g: np.zeros((g.n, g.n)))
        try:
            report = run_apsp_differential(
                [("ring", cycle_graph(6))],
                impls=["dijkstra-scipy", "broken-env-test"],
            )
        finally:
            del APSP_REGISTRY["broken-env-test"]
        assert not report.ok
        assert list((tmp_path / "art").glob("apsp-*.npz"))


class TestSuiteEntry:
    def test_run_suite_small(self):
        reports = run_suite(count=20, seed=1, mcb_count=8)
        assert set(reports) == {"apsp", "mcb"}
        assert all(r.ok for r in reports.values()), {
            k: r.summary() for k, r in reports.items()
        }

    def test_max_n_skips_counted(self, monkeypatch):
        def never(g):
            raise AssertionError("an entry over its max_n was run")

        monkeypatch.setitem(
            APSP_REGISTRY, "capped", Implementation(name="capped", fn=never, max_n=0)
        )
        # max_n=0 still admits the empty graph; every other one is skipped.
        graphs = [(name, g) for name, g in strategies.corpus(count=6, seed=0) if g.n]
        assert len(graphs) >= 3
        report = run_apsp_differential(graphs, impls=["dijkstra-scipy", "capped"])
        assert report.ok
        assert report.graphs_run == len(graphs)
        assert report.skipped == len(graphs)
        assert report.comparisons == 0
