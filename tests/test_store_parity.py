"""The windowed rank store against the linked-list store it replaced.

Each phase's ``tested`` count sizes the hetero work trace, so the store's
work counts decide the four virtual times.  ``LinkedListStore`` below is
the block-chain store verbatim (less ``memory_bytes``, which no check
reads): weight-ordered id blocks with next pointers, tombstones and
half-empty compaction, walked one block per predicate call.  Both stores
run the same full Mehlhorn–Michail phase loop; every pick (and a final
scan that matches nothing), every per-call ``tested`` and
``batches_visited`` count, both counter deltas and the remaining ranks
must agree.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np
import pytest

from repro import datasets
from repro.decomposition import biconnected_components, reduce_graph
from repro.graph import CSRGraph
from repro.mcb import gf2
from repro.mcb.mehlhorn_michail import MMContext
from repro.obs import metrics as _metrics
from repro.qa.strategies import adversarial_corpus, corpus

_C_SCANNED = _metrics.counter("mcb.candidates_scanned")
_C_BATCHES = _metrics.counter("mcb.scan_batches")

BLOCK_SIZES = (1, 7, 512)


@dataclasses.dataclass
class ScanStats:
    """Counters describing the scanning work performed (for cost models)."""

    batches_visited: int = 0
    candidates_tested: int = 0
    compactions: int = 0


class _Block:
    __slots__ = ("ids", "alive", "n_alive", "next")

    def __init__(self, ids: np.ndarray) -> None:
        self.ids = ids
        self.alive = np.ones(ids.size, dtype=bool)
        self.n_alive = int(ids.size)
        self.next: "_Block | None" = None


class LinkedListStore:
    """Weight-ordered candidate ids with vectorized first-match scans."""

    def __init__(self, ordered_ids: np.ndarray, block_size: int = 512) -> None:
        if block_size < 1:
            raise ValueError("block size must be positive")
        self.block_size = block_size
        ordered_ids = np.asarray(ordered_ids, dtype=np.int64)
        self._head: _Block | None = None
        self._size = int(ordered_ids.size)
        prev: _Block | None = None
        for start in range(0, ordered_ids.size, block_size):
            blk = _Block(ordered_ids[start : start + block_size].copy())
            if prev is None:
                self._head = blk
            else:
                prev.next = blk
            prev = blk
        self.stats = ScanStats()

    def __len__(self) -> int:
        return self._size

    def scan_and_remove(
        self, predicate: Callable[[np.ndarray], np.ndarray]
    ) -> int | None:
        """First live candidate (in weight order) matching ``predicate``.

        ``predicate`` receives a batch of candidate ids and returns a
        boolean mask.  The match is removed from the store.  ``None`` when
        nothing matches.
        """
        blk = self._head
        prev: _Block | None = None
        while blk is not None:
            if blk.n_alive == 0:
                # Unlink empty blocks lazily during traversal.
                nxt = blk.next
                if prev is None:
                    self._head = nxt
                else:
                    prev.next = nxt
                blk = nxt
                continue
            live_pos = np.nonzero(blk.alive)[0]
            live_ids = blk.ids[live_pos]
            self.stats.batches_visited += 1
            self.stats.candidates_tested += int(live_ids.size)
            _C_BATCHES.inc()
            _C_SCANNED.inc(int(live_ids.size))
            mask = predicate(live_ids)
            hits = np.nonzero(mask)[0]
            if hits.size:
                pos = int(live_pos[hits[0]])
                found = int(blk.ids[pos])
                blk.alive[pos] = False
                blk.n_alive -= 1
                self._size -= 1
                if 0 < blk.n_alive <= blk.ids.size // 2:
                    self._compact(blk)
                return found
            prev, blk = blk, blk.next
        return None

    def _compact(self, blk: _Block) -> None:
        """Reorder a half-dead block down to its live entries."""
        blk.ids = blk.ids[blk.alive]
        blk.alive = np.ones(blk.ids.size, dtype=bool)
        blk.n_alive = int(blk.ids.size)
        self.stats.compactions += 1

    def remaining_ids(self) -> np.ndarray:
        """All live candidate ids in weight order (mainly for tests)."""
        out: list[np.ndarray] = []
        blk = self._head
        while blk is not None:
            if blk.n_alive:
                out.append(blk.ids[blk.alive])
            blk = blk.next
        return np.concatenate(out) if out else np.empty(0, dtype=np.int64)


def _scan(store, predicate) -> tuple:
    """One scan: the pick, then the store's ``tested`` and
    ``batches_visited`` and the two counters' deltas."""
    before = (
        store.stats.candidates_tested, store.stats.batches_visited,
        _C_SCANNED.value, _C_BATCHES.value,
    )
    pick = store.scan_and_remove(predicate)
    after = (
        store.stats.candidates_tested, store.stats.batches_visited,
        _C_SCANNED.value, _C_BATCHES.value,
    )
    return (pick, *(a - b for a, b in zip(after, before)))


def assert_store_parity(g: CSRGraph, block_size: int, label: str) -> None:
    ctx = MMContext(g, block_size=block_size)
    if ctx.f == 0:
        return
    n = len(ctx.cand_e)
    new, ref = ctx.new_store(), LinkedListStore(np.arange(n), block_size)
    witnesses = gf2.identity(ctx.f)
    for i in range(ctx.f):
        s_pad = ctx.witness_edge_bits(witnesses[i])
        predicate = ctx.scan_predicate(ctx.compute_labels(s_pad), s_pad)
        mask = predicate(slice(0, n))
        got = _scan(new, predicate)
        assert got == _scan(ref, lambda ids: mask[ids]), (label, block_size, i)
        _, c_vec = ctx.reconstruct(got[0])
        ctx.update_witnesses(witnesses, i, c_vec)
    none = _scan(new, lambda win: np.zeros(win.stop - win.start, dtype=bool))
    assert none[0] is None
    assert none == _scan(ref, lambda ids: np.zeros(ids.size, dtype=bool)), (label, block_size)
    assert np.array_equal(new.remaining_ids(), ref.remaining_ids()), (label, block_size)
    assert len(new) == len(ref) == n - ctx.f


def assert_parity_with_and_without_ear(g: CSRGraph, block_size: int, label: str) -> None:
    """Every cyclic biconnected component as ``minimum_cycle_basis`` solves
    it: as is (without ear) and series-reduced (with ear)."""
    bcc = biconnected_components(g)
    for cid in range(bcc.count):
        sub, _ = bcc.component_subgraph(g, cid)
        if sub.cycle_space_dimension() == 0:
            continue
        assert_store_parity(sub, block_size, f"{label}/bcc{cid}")
        assert_store_parity(reduce_graph(sub).graph, block_size, f"{label}/bcc{cid}/reduced")


@pytest.mark.parametrize("block_size", BLOCK_SIZES)
def test_parity_on_qa_corpus(block_size):
    for name, g in corpus(300) + adversarial_corpus(3):
        assert_parity_with_and_without_ear(g, block_size, name)


@pytest.mark.parametrize("seed", [None, 101], ids=lambda s: f"seed{s}")
@pytest.mark.parametrize("block_size", BLOCK_SIZES)
def test_parity_on_table2_mcb_graph(seed, block_size):
    spec = next(s for s in datasets.TABLE1 if s.name == "as-22july06")
    if seed is not None:
        spec = dataclasses.replace(spec, seed=seed)
    assert_parity_with_and_without_ear(spec.generate(0.02), block_size, "as-22july06")
