"""Hybrid array/linked-list candidate container (Section 3.3.2).

The paper stores the weight-sorted candidate cycles in "a hybrid of
linked-list as well as linear arrays ... each linked-list node consists of
a constant sized array as its base element and has a single next pointer.
We first check within each position of the linked-list node and if not
found skip to the next node.  We mark the removal of elements by setting
off the MSB and reorder the cycles within nodes when half of those in a
node are removed."

This is that structure: blocks of a fixed size scanned batch-by-batch with
a vectorized predicate, tombstone removal, and per-block compaction once
half the entries are dead.  Scanning early-exits at the first block that
contains a match — the "logical batches B₁, B₂, …" of the search step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..obs import metrics as _metrics

__all__ = ["CandidateStore", "ScanStats"]

_C_SCANNED = _metrics.counter("mcb.candidates_scanned")
_C_BATCHES = _metrics.counter("mcb.scan_batches")


@dataclass
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


class CandidateStore:
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

    def memory_bytes(self) -> int:
        """Actual bytes held by the block chain (id arrays + alive masks).

        Feeds the ``memory.mcb.candidate_store_bytes`` gauge so Table-1
        style memory accounting covers the MCB side of the pipeline too.
        """
        total = 0
        blk = self._head
        while blk is not None:
            total += int(blk.ids.nbytes) + int(blk.alive.nbytes)
            blk = blk.next
        return total

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
