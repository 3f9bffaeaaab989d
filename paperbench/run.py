"""Paper-pipeline benchmark: Figure 2 (APSP) and Table 2 (MCB) legs.

Usage (from the repository root)::

    python3 paperbench/run.py --workload fig2-core --seed 12 --seconds 30 --trace 0

Each workload builds one Table-1 stand-in graph from ``--seed`` and runs
its legs (see ``pipelines.py``) on it as a closed loop from one process
and one thread: each call starts after the previous one returns, legs
interleaved call by call in alternating order.  Before every call the
adjacency cache is cleared (a one-shot user never hits it) and garbage is
collected outside the timed region.  Every output is checked in full.

``--trace 0`` prints the end-to-end metrics: set-up time, median and tail
seconds per leg, tracemalloc peaks, the Table-1 store size and the share
of calls whose output passed its check.

Times in the end-to-end metrics are *reference-speed seconds*: each
measured duration is scaled by ``CAL_REF_S / c``, where ``c`` is the mean
duration of the fixed :class:`Calibrator` kernel (no ``repro`` code) timed
just before and just after it.  Shared hosts change speed by tens of
percent over tens of seconds; the kernel slows with them, so the scaled
times stay comparable across runs.  Raw seconds are printed beside them.

``--trace 1`` alternates each
leg's public call with its staged form (each layer's public function
called in pipeline order, inside the benchmark's own spans), prints the
per-layer split, and writes the spans as Chrome trace_event JSON under
``.paperbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_OUT = ROOT / ".paperbench_out"

#: Child processes timed for ``setup_s`` (the median is reported).
SETUP_REPEATS = 5

#: Calls that must lie beyond the reported tail percentile.
TAIL_CALLS = 10

MIB = 2**20

#: Seconds the :class:`Calibrator` kernel takes on the reference host; a
#: duration ``t`` measured beside a kernel time ``c`` reports as
#: ``t * CAL_REF_S / c``.
CAL_REF_S = 0.015


class Calibrator:
    """Fixed host-speed probe: an interpreter loop plus compiled Dijkstra
    on a fixed random graph, the two kinds of work the pipelines mix."""

    def __init__(self) -> None:
        import numpy as np
        import scipy.sparse as sp

        rng = np.random.default_rng(0)
        n, m = 400, 2000
        rows, cols = rng.integers(0, n, m), rng.integers(0, n, m)
        self.adj = sp.coo_matrix((rng.uniform(0.5, 1.5, m), (rows, cols)), shape=(n, n)).tocsr()
        self.sources = np.arange(60)
        self.times: list[float] = []

    def __call__(self) -> float:
        from scipy.sparse.csgraph import dijkstra

        t0 = time.perf_counter()
        acc: dict[int, int] = {}
        for i in range(40_000):
            acc[i & 1023] = acc.get(i & 1023, 0) + i
        dijkstra(self.adj, directed=False, indices=self.sources)
        dt = time.perf_counter() - t0
        self.times.append(dt)
        return dt

    def scaled(self, fn, *args):
        """``(output, raw seconds, reference-speed seconds)`` of ``fn``."""
        before = self.times[-1] if self.times else self()
        out, dt = fn(*args)
        return out, dt, dt * CAL_REF_S * 2 / (before + self())


_SETUP_CODE = """\
import time
t0 = time.perf_counter()
import sys
sys.path.insert(0, {src!r})
import dataclasses
import repro
spec = next(s for s in repro.datasets.TABLE1 if s.name == {dataset!r})
dataclasses.replace(spec, seed={seed!r}).generate({scale!r})
print(time.perf_counter() - t0)
"""


def _setup_child(code: str) -> tuple[None, float]:
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True,
        text=True, timeout=120, check=True,
    )
    return None, float(proc.stdout.strip().splitlines()[-1])


def setup_seconds(dataset: str, seed: int, scale: float, cal: Calibrator):
    """Raw and reference-speed seconds to import ``repro`` and generate the
    graph, each in a fresh interpreter (interpreter start-up excluded)."""
    code = _SETUP_CODE.format(src=str(SRC), dataset=dataset, seed=seed, scale=scale)
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        _, dt, ref = cal.scaled(_setup_child, code)
        raw.append(dt)
        scaled.append(ref)
    return raw, scaled


def tail(values: list[float]) -> tuple[float, float]:
    """``(value, percentile)``: the highest percentile with at least
    :data:`TAIL_CALLS` calls beyond it, but never below the median (with
    fewer than ``2 * TAIL_CALLS`` calls there is no such tail)."""
    xs = sorted(values)
    k = max(len(xs) - TAIL_CALLS - 1, len(xs) // 2)
    return xs[k], 100.0 * k / len(xs)


def _fresh() -> None:
    """What a one-shot user starts from: no cached adjacency, no garbage."""
    from repro.sssp.engine import adjacency_cache

    adjacency_cache().clear()
    gc.collect()


def _call(fn, *args):
    """``(output, seconds)``; output ``None`` when the call raised."""
    _fresh()
    t0 = time.perf_counter()
    try:
        out = fn(*args)
    except Exception:
        traceback.print_exc()
        out = None
    return out, time.perf_counter() - t0


def peak_mb(fn, *args):
    """``(output, MiB)``: tracemalloc peak of one untimed call (tracing
    starts from zero, so this is the peak above the level at entry)."""
    tracemalloc.start()
    try:
        out, _ = _call(fn, *args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak / MIB


class Tally:
    """Attempted and failed calls; one failure line each on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"paperbench: FAILED {what}", file=sys.stderr)


def rounds(legs, seconds: float):
    """Yield ``(round, legs in call order)`` until ``seconds`` have passed;
    the order alternates so drift hits every leg equally."""
    start = time.perf_counter()
    rnd = 0
    while rnd == 0 or time.perf_counter() - start < seconds:
        yield rnd, (legs if rnd % 2 == 0 else legs[::-1])
        rnd += 1


def run_timed(workload, g, check, seconds: float, tally: Tally, cal: Calibrator):
    """Untraced closed loop over the legs' public calls; raw and
    reference-speed seconds per leg."""
    raw: dict[str, list[float]] = {leg.name: [] for leg in workload.legs}
    scaled: dict[str, list[float]] = {leg.name: [] for leg in workload.legs}
    cal()  # the first call's "before" probe
    for rnd, order in rounds(workload.legs, seconds):
        for leg in order:
            out, dt, ref = cal.scaled(_call, leg.call, g)
            raw[leg.name].append(dt)
            scaled[leg.name].append(ref)
            tally.record(out is not None and check(leg.name, out), f"{leg.name} call {rnd}")
            del out
    return raw, scaled


def _staged_call(leg, g, tracer):
    """Output of one staged call inside its root span (``None`` when it
    raised); the root records the adjacency builds the call made."""
    from repro.sssp.engine import adjacency_cache

    _fresh()
    out = None
    with tracer.call(leg.name) as root:
        try:
            out = leg.staged(g, tracer)
        except Exception:
            traceback.print_exc()
    root["sssp.adjacency_builds"] = adjacency_cache().misses
    return out


def run_traced(workload, g, check, seconds: float, tally: Tally, tracer):
    """Each leg's public call alternated with its staged, traced form.

    Returns the untraced seconds per leg.  A staged output that is not
    bit-identical to the public call's output counts as a failure.
    """
    from pipelines import same_output

    untraced: dict[str, list[float]] = {leg.name: [] for leg in workload.legs}
    whole: dict[str, object] = {}
    for rnd, order in rounds(workload.legs, seconds):
        for leg in order:
            # Round 0 runs the public call first: its output is the one
            # every staged output must equal.
            for traced in ((False, True) if rnd % 2 == 0 else (True, False)):
                if traced:
                    out = _staged_call(leg, g, tracer)
                    ok = (out is not None and check(leg.name, out)
                          and same_output(out, whole[leg.name]))
                else:
                    out, dt = _call(leg.call, g)
                    untraced[leg.name].append(dt)
                    whole.setdefault(leg.name, out)
                    ok = out is not None and check(leg.name, out)
                tally.record(ok, f"{'staged ' if traced else ''}{leg.name} call {rnd}")
                del out
    return untraced


def chrome_trace(spans, stamp: dict) -> dict:
    """Spans as Chrome trace_event JSON: one thread track per leg; every
    event carries its call id, span id and parent span id."""
    from pipelines import LEG_NAMES

    t0 = min((s.start for s in spans), default=0)
    tids = {leg: i + 1 for i, leg in enumerate(LEG_NAMES)}
    events = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
               "args": {"name": "paperbench"}}]
    events += [{"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                "args": {"name": leg}} for leg, tid in tids.items()]
    for s in spans:
        events.append({
            "name": s.name, "cat": s.cat, "ph": "X", "pid": 1, "tid": tids[s.leg],
            "ts": (s.start - t0) / 1e3, "dur": s.dur / 1e3,
            "args": {"call": s.call, "span": s.sid, "parent": s.parent, **s.args},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": stamp}


# --------------------------------------------------------------------- #
# Stamp
# --------------------------------------------------------------------- #


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def host_stamp() -> dict:
    """CPU count and model, cache sizes, library versions and git SHA."""
    import numpy
    import scipy

    model = next(
        (line.split(":", 1)[1].strip() for line in _read(Path("/proc/cpuinfo")).splitlines()
         if line.startswith("model name")),
        "unknown",
    )
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if _read(idx / "type") != "Instruction":
            caches[f"L{_read(idx / 'level')}"] = _read(idx / "size")
    head = _read(ROOT / ".git" / "HEAD")
    sha = _read(ROOT / ".git" / head[5:]) if head.startswith("ref: ") else head
    return {
        "cpus": os.cpu_count(),
        "pinned_to": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model,
        "caches": caches,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha or "unknown (not a git checkout)",
        "load": "closed loop, 1 process, 1 thread",
    }


def _cache_bytes(size: str) -> int:
    units = {"K": 2**10, "M": 2**20, "G": 2**30}
    if size and size[-1] in units:
        return int(size[:-1]) * units[size[-1]]
    return int(size) if size.isdigit() else 0


def working_set(n: int, caches: dict) -> str:
    """The n × n float64 matrix against L2 (the cache one core owns)."""
    matrix = n * n * 8
    l2 = _cache_bytes(caches.get("L2", ""))
    verdict = "unknown L2" if not l2 else ("fits in" if matrix <= l2 else "exceeds")
    return f"n x n float64 matrix {matrix / MIB:.2f} MiB {verdict} L2 {l2 / MIB:.2f} MiB"


# --------------------------------------------------------------------- #
# Main
# --------------------------------------------------------------------- #


def _median(xs: list[float]) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _checker(workload, g, tally: Tally, outputs: dict | None = None):
    import pipelines as P

    check = P.Checker(workload, g, outputs)
    if check.problem:
        tally.record(False, check.problem)
    return check


def end_to_end(workload, g, seconds, seed, tally) -> dict:
    import pipelines as P

    cal = Calibrator()
    setup_raw, setups = setup_seconds(workload.dataset, seed, P.SCALE, cal)
    peaks, outputs = {}, {}
    for leg in workload.legs:
        if leg.name in ("ours", "baseline"):
            outputs[leg.name], peaks[leg.name] = peak_mb(leg.call, g)
    check = _checker(workload, g, tally, outputs)
    for leg, out in outputs.items():
        if out is None or not check(leg, out):
            tally.record(False, f"{leg} peak-memory pass")
    del outputs
    store_mb = P.store_bytes(g) / MIB
    raw, times = run_timed(workload, g, check, seconds, tally, cal)

    m = {"setup_s": _metric(_median(setups), "s")}
    for leg in P.LEG_NAMES:
        m[f"{leg}_s"] = _metric(_median(times[leg]), "s")
    tails = {leg: tail(times[leg]) for leg in ("ours", "baseline")}
    for leg, (value, _) in tails.items():
        m[f"{leg}_tail_s"] = _metric(value, "s")
    for leg in ("ours", "baseline"):
        m[f"{leg}_peak_mb"] = _metric(peaks[leg], "MiB")
    m["store_mb"] = _metric(store_mb, "MiB")
    m["ok_frac"] = _metric((tally.attempted - tally.failed) / max(1, tally.attempted), "ratio")

    print(f"host speed: calibration kernel median {_median(cal.times) * 1e3:.2f} ms "
          f"(reference {CAL_REF_S * 1e3:.0f} ms); times below are reference-speed "
          "ms, raw ms in brackets")
    print(f"    setup: median {_median(setups):.4f} s [{_median(setup_raw):.4f}] "
          f"of {len(setups)} fresh interpreters")
    for leg in P.LEG_NAMES:
        line = (f"{leg:>9}: median {_median(times[leg]) * 1e3:9.2f} ms "
                f"[{_median(raw[leg]) * 1e3:.2f}] over {len(times[leg])} calls")
        if leg in tails:
            value, pct = tails[leg]
            beyond = sum(x > value for x in times[leg])
            line += f"; tail p{pct:.1f} {value * 1e3:.2f} ms ({beyond} calls beyond)"
            line += f"; peak {peaks[leg]:.3f} MiB"
        print(line)
    label = "Figure 2" if workload.kind == "fig2" else "Table 2"
    speedup = _median(times["baseline"]) / max(_median(times["ours"]), 1e-12)
    print(f"{label} speedup baseline_s / ours_s = {speedup:.3f}")
    print(f"Table 1 store: {store_mb:.4f} MiB at 4-byte entries")
    return m


def per_layer(workload, g, seconds, tally, trace_out: Path, stamp) -> dict:
    import pipelines as P

    check = _checker(workload, g, tally)
    tracer = P.Tracer()
    untraced = run_traced(workload, g, check, seconds, tally, tracer)
    totals = P.call_totals(tracer.spans)
    by_leg: dict[str, list[dict]] = {leg: [] for leg in P.LEG_NAMES}
    for s in tracer.spans:
        if s.parent is None:
            by_leg[s.leg].append(totals[s.call])

    m = {}
    for name, unit in P.per_layer_units().items():
        leg, key = name.split(".", 1)
        if leg in by_leg:
            m[name] = _metric(_median([t.get(key, 0.0) for t in by_leg[leg]]), unit)
    virtual = check.ref_virtual or {}
    for p in P.VIRTUAL_PLATFORMS:
        m[f"hetero.virtual_s.{p}"] = _metric(virtual.get(p, 0.0), "virtual_s")

    trace_out.parent.mkdir(parents=True, exist_ok=True)
    trace_out.write_text(json.dumps(chrome_trace(tracer.spans, stamp)))
    print(f"trace: {len(tracer.spans)} spans -> {trace_out}")
    for leg in P.LEG_NAMES:
        root = m[f"{leg}.root_s"]["value"]
        plain = _median(untraced[leg])
        print(f"{leg:>9}: untraced median {plain * 1e3:.2f} ms, traced root "
              f"{root * 1e3:.2f} ms (overhead {100 * (root / plain - 1):+.1f}%), "
              f"named layers cover {100 * m[f'{leg}.coverage']['value']:.1f}% "
              f"over {len(by_leg[leg])} traced calls")
        for suffix, _ in P.LAYER_METRICS + (P.BASELINE_ONLY if leg == "baseline" else ()):
            v = m[f"{leg}.{suffix}"]["value"]
            if suffix.endswith("self_s") and v:
                print(f"{'':>11}{suffix:<30} {v * 1e3:9.2f} ms  {100 * v / root:5.1f}%")
    if virtual:
        print("virtual seconds (device model, not wall clock): "
              + ", ".join(f"{p} {v:.6g}" for p, v in virtual.items()))
    return m


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None,
                    help="graph seed (default: the Table-1 spec's own seed)")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics, spans written to "
                         ".paperbench_out/<workload>-seed<seed>.trace.json")
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"paperbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    if hasattr(os, "sched_setaffinity"):
        # One CPU for the calls, the calibration kernel and the set-up
        # children alike, so they all see that CPU's speed.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import pipelines as P

    if args.workload not in P.WORKLOADS:
        print(f"paperbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(P.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = P.WORKLOADS[args.workload]
    seed = workload.spec(args.seed).seed
    g = workload.graph(seed)
    tally = Tally()
    stamp = host_stamp()
    stamp.update(workload=workload.name, dataset=workload.dataset, scale=P.SCALE,
                 seed=seed, graph=P.graph_stats(g),
                 working_set=working_set(g.n, stamp["caches"]))
    print(json.dumps({"stamp": stamp}))

    if args.trace:
        out = DEFAULT_OUT / f"{workload.name}-seed{seed}.trace.json"
        metrics = per_layer(workload, g, args.seconds, tally, out, stamp)
    else:
        metrics = end_to_end(workload, g, args.seconds, seed, tally)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
