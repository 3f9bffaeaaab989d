"""Fault injection for the process-parallel backend.

The parallel backend promises lossless degradation: whatever goes wrong in
the pool — a worker raising mid-chunk, shared memory failing to allocate,
a hung worker — the caller still gets the bit-identical serial result.
This module makes those failures reproducible on demand.

Faults are described by the ``REPRO_FAULTS`` environment variable so they
propagate to worker processes under both ``fork`` and ``spawn`` start
methods.  The spec is a comma-separated list of ``site[:arg]`` entries:

``worker.crash``
    Every chunk raises :class:`InjectedWorkerCrash` in the worker.
``worker.crash:K``
    Only chunks whose first source id is ≥ ``K`` crash — some chunks
    succeed first, exercising the mid-computation degradation path.
``worker.hang:SECONDS``
    Each chunk sleeps ``SECONDS`` before computing; combined with the
    backend's ``timeout`` this simulates a stuck worker.
``shm.oom``
    Shared-memory segment creation raises ``OSError`` (allocation
    failure), exercising the constructor's serial fallback.

:mod:`repro.hetero.parallel` calls :func:`fire` at its seams only when
``REPRO_FAULTS`` is set, so production runs pay a single environment
lookup.  Tests use the context managers, which set and restore the
variable.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

__all__ = [
    "ENV_VAR",
    "InjectedFault",
    "InjectedWorkerCrash",
    "parse_spec",
    "fire",
    "inject",
    "inject_worker_crash",
    "inject_worker_hang",
    "inject_shm_failure",
]

ENV_VAR = "REPRO_FAULTS"


class InjectedFault(RuntimeError):
    """Base class for injected failures (distinguishable from real bugs)."""


class InjectedWorkerCrash(InjectedFault):
    """A worker was told to die mid-chunk."""


def parse_spec(spec: str) -> list[tuple[str, str | None]]:
    """``"worker.crash:8,shm.oom"`` → ``[("worker.crash", "8"), ("shm.oom", None)]``."""
    out: list[tuple[str, str | None]] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        site, _, arg = part.partition(":")
        out.append((site, arg or None))
    return out


def fire(seam: str, first_source: int | None = None) -> None:
    """Raise/delay according to ``REPRO_FAULTS`` if it targets ``seam``.

    ``seam`` is ``"worker.chunk"`` (inside a worker, before computing a
    chunk) or ``"shm.create"`` (parent, before allocating segments).
    """
    spec = os.environ.get(ENV_VAR)
    if not spec:
        return
    for site, arg in parse_spec(spec):
        if seam == "worker.chunk" and site == "worker.hang":
            _emit_fired(seam, site, arg, first_source)
            time.sleep(float(arg) if arg else 60.0)
        elif seam == "worker.chunk" and site == "worker.crash":
            if arg is None or first_source is None or first_source >= int(arg):
                _emit_fired(seam, site, arg, first_source)
                raise InjectedWorkerCrash(
                    f"injected crash on chunk starting at source {first_source}"
                )
        elif seam == "shm.create" and site == "shm.oom":
            _emit_fired(seam, site, arg, first_source)
            raise OSError(28, "injected shared-memory allocation failure")


def _emit_fired(
    seam: str, site: str, arg: str | None, first_source: int | None
) -> None:
    """Publish a ``fault.fired`` event *before* the fault acts.

    Emitted first on purpose: a hang or crash must not be able to
    suppress its own evidence, so the stream always shows which injected
    fault a degradation or stall traces back to.
    """
    from ..obs import events as _events

    if _events.enabled():
        _events.emit(
            "fault.fired", seam=seam, site=site, arg=arg, first_source=first_source
        )


@contextmanager
def inject(spec: str):
    """Set ``REPRO_FAULTS`` to ``spec`` for the duration of the block."""
    prev = os.environ.get(ENV_VAR)
    os.environ[ENV_VAR] = spec
    try:
        yield
    finally:
        if prev is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = prev


def inject_worker_crash(from_source: int | None = None):
    """Crash every chunk, or only those starting at ``from_source`` or later."""
    spec = "worker.crash" if from_source is None else f"worker.crash:{from_source}"
    return inject(spec)


def inject_worker_hang(seconds: float):
    """Hang every chunk for ``seconds`` before it computes."""
    return inject(f"worker.hang:{seconds}")


def inject_shm_failure():
    """Fail shared-memory segment allocation in the parent."""
    return inject("shm.oom")
