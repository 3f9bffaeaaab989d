"""True process-parallel CPU backend for the bulk-SSSP engine.

The virtual-time devices of :mod:`repro.hetero.device` *model* the paper's
platform; this module adds a backend that is genuinely parallel on the
host: source chunks of a multi-source Dijkstra fan out over a
``multiprocessing`` worker pool, and the scipy CSR adjacency buffers
(``data`` / ``indices`` / ``indptr``) are placed in POSIX shared memory so
workers attach to them **zero-copy and pickle-free** — only the small
per-chunk source arrays and the per-chunk result rows cross process
boundaries.

The backend degrades gracefully: with ``workers <= 1``, an empty graph, a
pool that cannot be created (restricted sandboxes), a worker that raises
mid-chunk, or a dispatch that exceeds ``timeout`` seconds
(``REPRO_PARALLEL_TIMEOUT``), every call runs through the serial
:mod:`repro.sssp.engine` path and returns bit-identical results — per-
source Dijkstra runs are independent, so the serial recomputation is the
same arithmetic.  ``REPRO_WORKERS`` selects the default worker count.

Failure paths are covered by the fault-injection harness
(:mod:`repro.qa.faultinject`): the ``REPRO_FAULTS`` environment variable
arms crash/hang/allocation faults at the seams marked ``_inject`` below,
and the conformance suite asserts that every armed fault still yields the
serial engine's exact matrices with no leaked shared-memory segments.

This is the process arm of the execution-backend seam (serial scipy /
thread device / process pool / virtual GPU) the multi-backend roadmap
builds on.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
import warnings
from multiprocessing import shared_memory

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from ..graph.csr import CSRGraph
from ..obs import events as _events
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..obs import watch as _watch
from ..sssp import engine as _engine

_C_SHM_BYTES = _metrics.counter("parallel.shm_bytes")
_C_CHUNKS = _metrics.counter("parallel.chunks_dispatched")
_C_DEGRADED = _metrics.counter("parallel.degraded")
_G_WORKERS = _metrics.gauge("parallel.workers")
_G_UTIL = _metrics.gauge("parallel.worker_utilisation")
_H_DISPATCH_UTIL = _metrics.histogram("parallel.dispatch_utilisation")

__all__ = [
    "resolve_workers",
    "resolve_timeout",
    "SharedCSRBuffers",
    "ParallelEngine",
    "parallel_all_pairs",
]


def _inject(seam: str, first_source: int | None = None) -> None:
    """Fault-injection seam: no-op unless ``REPRO_FAULTS`` is armed."""
    if os.environ.get("REPRO_FAULTS"):
        from ..qa import faultinject

        faultinject.fire(seam, first_source=first_source)


def resolve_workers(workers: int | None = None) -> int:
    """Effective worker count: explicit argument > ``REPRO_WORKERS`` > cores.

    Values below 2 mean "serial" (no pool is created at all).
    """
    if workers is None:
        env = os.environ.get("REPRO_WORKERS")
        if env is not None:
            workers = int(env)
        else:
            try:
                workers = len(os.sched_getaffinity(0))
            except AttributeError:  # pragma: no cover - non-Linux
                workers = os.cpu_count() or 1
    return max(1, int(workers))


def resolve_timeout(timeout: float | None = None) -> float | None:
    """Per-dispatch timeout: explicit argument > ``REPRO_PARALLEL_TIMEOUT``.

    ``None`` (the default) waits indefinitely; a positive value bounds each
    pool dispatch and triggers the serial degradation path on expiry.
    """
    if timeout is None:
        env = os.environ.get("REPRO_PARALLEL_TIMEOUT")
        if env:
            timeout = float(env)
    if timeout is not None and timeout <= 0:
        raise ValueError(f"timeout must be positive, got {timeout}")
    return timeout


class SharedCSRBuffers:
    """A scipy CSR matrix exported into named shared-memory segments.

    The parent process owns the segments (creates and unlinks them);
    workers attach by name through :meth:`attach` and wrap the raw buffers
    in a ``csr_matrix`` without copying.
    """

    _FIELDS = ("data", "indices", "indptr")

    def __init__(self, mat: sp.csr_matrix) -> None:
        self.shape = mat.shape
        self._shms: list[shared_memory.SharedMemory] = []
        self.spec: dict = {"shape": mat.shape, "fields": {}}
        try:
            for name in self._FIELDS:
                _inject("shm.create")
                arr = np.ascontiguousarray(getattr(mat, name))
                shm = shared_memory.SharedMemory(create=True, size=max(1, arr.nbytes))
                _C_SHM_BYTES.inc(max(1, arr.nbytes))
                view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
                view[:] = arr
                self._shms.append(shm)
                self.spec["fields"][name] = (shm.name, arr.shape, arr.dtype.str)
        except BaseException:
            # Failing on the 2nd/3rd segment must not leak the earlier ones.
            self.close()
            raise

    @staticmethod
    def attach(
        spec: dict, untrack: bool = False
    ) -> tuple[sp.csr_matrix, list[shared_memory.SharedMemory]]:
        """Rebuild the matrix over the named segments (zero-copy).

        Returns the matrix plus the segment handles, which the caller must
        keep alive for as long as the matrix is used.  ``untrack=True``
        removes the segments from the attaching process's resource tracker
        and is only for *independently launched* attachers, whose private
        tracker would otherwise destroy the parent-owned segments at exit.
        Pool workers — fork and spawn alike — inherit the parent's tracker
        fd and must leave the registration alone (it is the parent's).
        """
        arrays = {}
        shms: list[shared_memory.SharedMemory] = []
        try:
            for name, (shm_name, shape, dtype) in spec["fields"].items():
                shm = shared_memory.SharedMemory(name=shm_name)
                if untrack:
                    _untrack(shm)
                shms.append(shm)
                arrays[name] = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)
        except BaseException:
            # A partial attach must release what it already mapped.
            for shm in shms:
                try:
                    shm.close()
                except OSError:  # pragma: no cover - best-effort cleanup
                    pass
            raise
        mat = sp.csr_matrix(
            (arrays["data"], arrays["indices"], arrays["indptr"]),
            shape=spec["shape"],
            copy=False,
        )
        return mat, shms

    def close(self) -> None:
        """Release and unlink the segments (parent side, idempotent)."""
        for shm in self._shms:
            try:
                shm.close()
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass
        self._shms = []


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Drop a segment from this process's resource tracker.

    Attachers must not unlink segments they did not create; an
    independently launched attacher uses this so its tracker does not try
    to destroy (and warn about) the parent-owned segments at exit.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")  # type: ignore[attr-defined]
    except Exception:  # pragma: no cover - tracker internals shifted
        pass


# ------------------------------------------------------------------ #
# Worker-process side
# ------------------------------------------------------------------ #

_worker_mat: sp.csr_matrix | None = None
_worker_shms: list[shared_memory.SharedMemory] = []


def _worker_init(spec: dict) -> None:
    global _worker_mat, _worker_shms
    try:
        _worker_mat, _worker_shms = SharedCSRBuffers.attach(spec)
    except BaseException:
        # A worker that raises before serving must not hold segment handles
        # (attach() already released partial maps; reset the globals so a
        # re-initialised worker starts clean).
        _worker_mat, _worker_shms = None, []
        raise


def _worker_dijkstra(task: tuple[np.ndarray, bool, bool]):
    """One chunk in a pool worker.

    When the parent is tracing (``want_spans``), the chunk runs under a
    private worker-local collector and the recorded spans ride back with
    the result as a picklable payload; the parent ingests them with their
    worker ``pid`` intact, which the Chrome export turns into per-worker
    tracks.  A crashing chunk returns nothing — the parent's trace only
    ever receives complete, well-formed spans.
    """
    sources, want_pred, want_spans = task
    if not want_spans:
        return _worker_chunk(sources, want_pred)
    with _trace.tracing() as col:
        with _trace.span(
            "parallel.worker_chunk",
            cat="parallel",
            sources=int(len(sources)),
            first_source=int(sources[0]) if len(sources) else -1,
        ):
            out = _worker_chunk(sources, want_pred)
    return out, col.export_spans()


def _worker_chunk(sources: np.ndarray, want_pred: bool):
    # The heartbeat precedes the fault seam on purpose: a worker hung by
    # the ``worker.hang`` fault leaves a ``chunk_start`` beat whose age
    # keeps growing, which is exactly what the stall watchdog keys on.
    ev = _events.enabled()
    if ev:
        _events.emit(
            "worker.heartbeat", status="chunk_start", sources=int(len(sources))
        )
    _inject(
        "worker.chunk",
        first_source=int(sources[0]) if len(sources) else None,
    )
    out = csgraph.dijkstra(
        _worker_mat, directed=False, indices=sources, return_predecessors=want_pred
    )
    if ev:
        _events.emit(
            "worker.heartbeat", status="chunk_done", sources=int(len(sources))
        )
    if want_pred:
        dist, pred = out
        return np.asarray(dist, dtype=np.float64), np.asarray(pred, dtype=np.int64)
    return np.asarray(out, dtype=np.float64)


# ------------------------------------------------------------------ #
# Parent-process engine
# ------------------------------------------------------------------ #


class ParallelEngine:
    """Multi-source Dijkstra fanned out over a process pool.

    Construction pins the graph: its scipy adjacency is built once (via the
    engine's fingerprint cache), exported to shared memory, and a pool of
    ``workers`` processes attaches to it.  Subsequent calls only ship
    source chunks and receive distance rows.  Use as a context manager, or
    call :meth:`close` explicitly, to tear the pool and segments down.

    With fewer than 2 effective workers the engine is a thin façade over
    the serial :mod:`repro.sssp.engine` — same results, no processes.  Any
    pool failure after construction (a worker raising mid-chunk, a dispatch
    exceeding ``timeout`` seconds) permanently degrades the engine to that
    same serial path: the in-flight request is recomputed serially, so the
    caller still receives the exact matrices, and the pool plus its
    shared-memory segments are torn down.
    """

    def __init__(
        self,
        g: CSRGraph,
        workers: int | None = None,
        chunk_size: int | None = None,
        start_method: str | None = None,
        timeout: float | None = None,
    ) -> None:
        self.graph = g
        self.workers = resolve_workers(workers)
        self.chunk_size = _engine.resolve_chunk_size(chunk_size)
        self.timeout = resolve_timeout(timeout)
        self._pool = None
        self._buffers: SharedCSRBuffers | None = None
        if self.workers < 2 or g.n == 0:
            return
        try:
            mat = _engine.adjacency_cache().get(g)
            self._buffers = SharedCSRBuffers(mat)
            methods = mp.get_all_start_methods()
            method = start_method or ("fork" if "fork" in methods else methods[0])
            ctx = mp.get_context(method)
            self._pool = ctx.Pool(
                processes=self.workers,
                initializer=_worker_init,
                initargs=(self._buffers.spec,),
            )
            _G_WORKERS.set(self.workers)
        except (OSError, ValueError) as exc:  # restricted sandbox / no shm
            warnings.warn(
                f"ParallelEngine falling back to serial execution: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
            if self._buffers is not None:
                self._buffers.close()
                self._buffers = None
            self._pool = None

    # -------------------------------------------------------------- #

    @property
    def is_parallel(self) -> bool:
        """True when a live worker pool backs this engine."""
        return self._pool is not None

    def _chunks(self, sources: np.ndarray) -> list[np.ndarray]:
        return [
            sources[lo : lo + self.chunk_size]
            for lo in range(0, len(sources), self.chunk_size)
        ]

    def _dispatch(self, chunks: list[np.ndarray], want_pred: bool) -> list:
        """Fan chunks out, bounded by ``timeout`` when one is configured.

        When tracing is active, worker-recorded spans piggy-back on each
        chunk result and are merged into the parent collector here, with a
        parent-side ``parallel.dispatch`` span bracketing the whole fan-out
        and a utilisation gauge computed from the merged busy time.
        """
        col = _trace.current_collector()
        tasks = [(c, want_pred, col is not None) for c in chunks]
        _C_CHUNKS.inc(len(tasks))
        # With events enabled, a watchdog thread consumes the workers'
        # heartbeat shards for the duration of the fan-out: a hung worker
        # is flagged (watch.stalls, engine.stall_detected) while the
        # dispatch is still waiting, before any timeout degradation.
        sink = _events.current_sink()
        watchdog = None
        if sink is not None:
            _events.emit(
                "dispatch.start",
                chunks=len(tasks),
                workers=self.workers,
            )
            watchdog = _watch.Watchdog(
                _watch.heartbeats_from_events(sink.dir),
                stall_after=_watch.resolve_stall_after(None, self.timeout),
            ).start()
        t0 = time.perf_counter_ns()
        try:
            with _trace.span(
                "parallel.dispatch", cat="parallel",
                chunks=len(tasks), workers=self.workers,
            ):
                if self.timeout is None:
                    raw = self._pool.map(_worker_dijkstra, tasks)
                else:
                    raw = self._pool.map_async(_worker_dijkstra, tasks).get(
                        self.timeout
                    )
        finally:
            if watchdog is not None:
                watchdog.stop()
                _events.emit(
                    "dispatch.finish",
                    chunks=len(tasks),
                    workers=self.workers,
                    stalls=len(watchdog.stalled),
                )
        if col is None:
            return raw
        wall = max(1, time.perf_counter_ns() - t0)
        results = []
        busy = 0
        for res, payload in raw:
            results.append(res)
            # Only root spans count toward busy time (children are nested).
            busy += sum(t[3] for t in payload if t[6] == 0)
            col.ingest(payload)
        util = busy / (wall * max(1, self.workers))
        _G_UTIL.set(util)
        # The gauge is last-write-wins; the histogram keeps every
        # dispatch so utilisation tails survive multi-dispatch runs.
        _H_DISPATCH_UTIL.observe(util)
        return results

    def _degrade(self, exc: BaseException) -> None:
        """Tear the pool down after a failure; the engine stays usable serially.

        ``terminate`` rather than ``close``: the workers may be hung (the
        timeout path) or mid-crash, so a graceful join could block forever.
        """
        warnings.warn(
            f"ParallelEngine degrading to serial execution: {exc!r}",
            RuntimeWarning,
            stacklevel=3,
        )
        _C_DEGRADED.inc()
        if _events.enabled():
            _events.emit("engine.degraded", error=type(exc).__name__)
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
        if self._buffers is not None:
            self._buffers.close()
            self._buffers = None

    def multi_source(self, sources: np.ndarray) -> np.ndarray:
        """Distance matrix ``(len(sources), n)`` — bit-identical to the
        serial engine for any worker count, chunking, or pool failure."""
        sources = np.asarray(sources, dtype=np.int64)
        if self._pool is None or len(sources) == 0:
            return _engine.multi_source(self.graph, sources, self.chunk_size)
        try:
            rows = self._dispatch(self._chunks(sources), want_pred=False)
        except Exception as exc:
            self._degrade(exc)
            return _engine.multi_source(self.graph, sources, self.chunk_size)
        return np.vstack(rows)

    def all_pairs(self) -> np.ndarray:
        """Full ``n × n`` matrix (one Dijkstra per vertex, chunk-parallel)."""
        return self.multi_source(np.arange(self.graph.n, dtype=np.int64))

    def spt_forest(self, sources: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(dist, parent)`` forests, same contract as the serial engine."""
        sources = np.asarray(sources, dtype=np.int64)
        if self._pool is None or len(sources) == 0:
            return _engine.spt_forest(self.graph, sources, self.chunk_size)
        try:
            parts = self._dispatch(self._chunks(sources), want_pred=True)
        except Exception as exc:
            self._degrade(exc)
            return _engine.spt_forest(self.graph, sources, self.chunk_size)
        dist = np.vstack([d for d, _ in parts])
        pred = np.vstack([p for _, p in parts])
        return dist, pred

    # -------------------------------------------------------------- #

    def close(self) -> None:
        """Terminate the pool and release the shared segments (idempotent)."""
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None
        if self._buffers is not None:
            self._buffers.close()
            self._buffers = None

    def __enter__(self) -> "ParallelEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass


# ------------------------------------------------------------------ #
# One-shot convenience
# ------------------------------------------------------------------ #


def parallel_all_pairs(
    g: CSRGraph, workers: int | None = None, chunk_size: int | None = None
) -> np.ndarray:
    """One-shot parallel APSP over all vertices."""
    with ParallelEngine(g, workers=workers, chunk_size=chunk_size) as eng:
        return eng.all_pairs()

