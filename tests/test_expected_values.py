"""Internal consistency of the transcribed paper values."""

import pytest

from repro.bench import expected
from repro import datasets


def test_table1_covers_all_datasets():
    names = {s.name for s in datasets.TABLE1}
    assert set(expected.TABLE1_MEMORY_MB) == names


def test_table1_ours_le_max():
    for name, (ours, mx) in expected.TABLE1_MEMORY_MB.items():
        assert ours <= mx, name


def test_table2_covers_mcb_datasets():
    assert set(expected.TABLE2_SECONDS) == set(datasets.MCB_DATASETS)


def test_table2_ear_never_slower():
    for name, impls in expected.TABLE2_SECONDS.items():
        for impl, (w, wo) in impls.items():
            assert w <= wo, (name, impl)


def test_table2_parallel_faster_than_sequential():
    for name, impls in expected.TABLE2_SECONDS.items():
        seq = impls["sequential"][0]
        for impl in ("multicore", "gpu", "cpu+gpu"):
            assert impls[impl][0] < seq, (name, impl)


def test_paper_fig5_ordering():
    sp = expected.FIG5_AVG_SPEEDUP
    assert sp["cpu+gpu"] > sp["gpu"] > sp["multicore"] > 1


def test_paper_table2_implies_fig5_magnitudes():
    """The per-dataset Table-2 ratios should average near the Fig-5 claims."""
    from repro.bench.metrics import geometric_mean

    for impl, claimed in expected.FIG5_AVG_SPEEDUP.items():
        ratios = [
            impls["sequential"][0] / impls[impl][0]
            for impls in expected.TABLE2_SECONDS.values()
        ]
        measured = geometric_mean(ratios)
        # the paper's own numbers agree with its own claim within ~40%
        assert measured == pytest.approx(claimed, rel=0.45), (impl, measured)


def test_phase_fractions_sum_below_one():
    assert sum(expected.PHASE_FRACTIONS.values()) <= 1.0


def test_ear_speedup_by_impl_sequential_largest():
    e = expected.EAR_SPEEDUP_BY_IMPL
    assert e["sequential"] >= max(e.values()) - 1e-9


def test_speedup_keys_are_the_table2_platform_names():
    """``repro-bench table2`` looks each measured platform up by name."""
    from repro.hetero.trace import table2_platforms

    names = [p.name for p in table2_platforms()]
    assert list(expected.FIG5_AVG_SPEEDUP) == names[1:]
    assert list(expected.EAR_SPEEDUP_BY_IMPL) == names
