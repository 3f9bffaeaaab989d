"""Weight-ranked candidate store (Section 3.3.2): an alive mask over
ranks scanned in windows, with the counts of a block-by-block walk."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mcb import CandidateStore


def make_store(n=100, block=16):
    return CandidateStore(n, block_size=block)


def match_set(targets):
    targets = set(targets)

    def pred(win):
        return np.array([i in targets for i in range(win.start, win.stop)], dtype=bool)

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
    assert store.scan_and_remove(lambda win: np.zeros(win.stop - win.start, dtype=bool)) is None
    assert len(store) == 20


def test_early_exit_skips_later_batches():
    store = make_store(100, block=10)
    store.scan_and_remove(match_set({5}))
    # only the first batch should have been visited
    assert store.stats.batches_visited == 1
    assert store.stats.candidates_tested == 10


def test_counts_stop_at_the_hit_block():
    # Windows of 1, 2 and 4 blocks: 35 lies in the third, which is charged
    # through block 3 only, as a block-by-block walk would be.
    store = make_store(100, block=10)
    assert store.scan_and_remove(match_set({35})) == 35
    assert (store.stats.batches_visited, store.stats.candidates_tested) == (4, 40)
    # An emptied block is no batch; the hit block counts its live entries.
    store = make_store(30, block=10)
    for t in range(10):
        store.scan_and_remove(match_set({t}))
    store.stats.batches_visited = store.stats.candidates_tested = 0
    assert store.scan_and_remove(match_set({25})) == 25
    assert (store.stats.batches_visited, store.stats.candidates_tested) == (2, 20)


def test_empty_blocks_unlinked():
    store = CandidateStore(4, block_size=2)
    for t in (0, 1):
        store.scan_and_remove(match_set({t}))
    # first block now empty; next scan must still find later entries
    assert store.scan_and_remove(match_set({3})) == 3


def test_invalid_block_size():
    with pytest.raises(ValueError):
        CandidateStore(3, block_size=0)


def test_empty_store():
    store = CandidateStore(0)
    assert len(store) == 0
    assert store.scan_and_remove(lambda win: np.ones(win.stop - win.start, dtype=bool)) is None


@given(
    st.integers(1, 60),
    st.integers(1, 16),
    st.lists(st.integers(0, 59), min_size=1, max_size=40),
)
@settings(max_examples=60)
def test_property_matches_naive_first_match(n, block, removals):
    """Whatever the removal pattern, scan == first live rank matching."""
    store = CandidateStore(n, block_size=block)
    alive = list(range(n))
    for r in removals:
        targets = {r, (r * 7) % n}
        got = store.scan_and_remove(match_set(targets))
        want = next((x for x in alive if x in targets), None)
        assert got == want
        if want is not None:
            alive.remove(want)
    assert sorted(store.remaining_ids().tolist()) == alive

