"""Hybrid array/linked-list candidate store (Section 3.3.2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mcb import CandidateStore


def make_store(n=100, block=16):
    return CandidateStore(np.arange(n), block_size=block)


def match_set(targets):
    targets = set(targets)

    def pred(ids):
        return np.array([int(i) in targets for i in ids])

    return pred


def test_scan_returns_first_in_order():
    store = make_store()
    assert store.scan_and_remove(match_set({55, 7, 90})) == 7


def test_removed_not_returned_again():
    store = make_store()
    assert store.scan_and_remove(match_set({7})) == 7
    assert store.scan_and_remove(match_set({7})) is None


def test_len_tracks_removals():
    store = make_store(10)
    assert len(store) == 10
    store.scan_and_remove(match_set({3}))
    assert len(store) == 9


def test_no_match_returns_none_and_keeps_all():
    store = make_store(20)
    assert store.scan_and_remove(lambda ids: np.zeros(len(ids), dtype=bool)) is None
    assert len(store) == 20


def test_early_exit_skips_later_batches():
    store = make_store(100, block=10)
    store.scan_and_remove(match_set({5}))
    # only the first batch should have been visited
    assert store.stats.batches_visited == 1
    assert store.stats.candidates_tested == 10


def test_compaction_triggers_at_half():
    store = CandidateStore(np.arange(8), block_size=8)
    for t in (0, 1, 2, 3):
        store.scan_and_remove(match_set({t}))
    assert store.stats.compactions >= 1
    assert sorted(store.remaining_ids().tolist()) == [4, 5, 6, 7]


def test_empty_blocks_unlinked():
    store = CandidateStore(np.arange(4), block_size=2)
    for t in (0, 1):
        store.scan_and_remove(match_set({t}))
    # first block now empty; next scan must still find later entries
    assert store.scan_and_remove(match_set({3})) == 3


def test_weight_order_preserved_nontrivial_ids():
    # ordered ids need not be 0..n-1
    order = np.array([42, 17, 99, 3])
    store = CandidateStore(order, block_size=2)
    assert store.scan_and_remove(match_set({99, 3})) == 99  # first in order


def test_invalid_block_size():
    with pytest.raises(ValueError):
        CandidateStore(np.arange(3), block_size=0)


def test_empty_store():
    store = CandidateStore(np.array([], dtype=np.int64))
    assert len(store) == 0
    assert store.scan_and_remove(lambda ids: np.ones(len(ids), dtype=bool)) is None


@given(
    st.integers(1, 60),
    st.integers(1, 16),
    st.lists(st.integers(0, 59), min_size=1, max_size=40),
)
@settings(max_examples=60)
def test_property_matches_naive_first_match(n, block, removals):
    """Whatever the removal pattern, scan == first live id matching."""
    store = CandidateStore(np.arange(n), block_size=block)
    alive = list(range(n))
    for r in removals:
        targets = {r, (r * 7) % n}
        got = store.scan_and_remove(match_set(targets))
        want = next((x for x in alive if x in targets), None)
        assert got == want
        if want is not None:
            alive.remove(want)
    assert sorted(store.remaining_ids().tolist()) == alive

