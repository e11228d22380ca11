"""Measurement of one workload in this process: set-up, the closed loop,
the traced pass and the result line.  ``run.py`` is the command line."""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

import calibrate
import effectorder as eo
from tracer import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"

# Fresh processes timed for setup_s, after one untimed warm-up process.
SETUP_RUNS = 7
# A calibration sample is taken between requests at least this often, and
# a request is scaled by the samples within CAL_WINDOW_NS of its start.
CAL_PERIOD_NS = 20_000_000
CAL_WINDOW_NS = 100_000_000
# Requests served, checked and counted before timing starts.
WARMUP_REQUESTS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_rps": "requests/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MiB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith(("_frac", "_share")):
        return "ratio"
    return "count"


# --- environment -------------------------------------------------------------

def _blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded, asked of the library."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None
    when the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "effectorder").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        vendor = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": vendor,
        "blas_threads": _blas_threads(),
        "blas_threads_requested": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


# --- measurement ---------------------------------------------------------------

@dataclass
class LoopStats:
    """Requests of one loop: start and latency of each timed request, the
    calibration samples taken between requests, and the outcome counts."""

    starts_ns: list[int] = field(default_factory=list)
    latencies_ns: list[int] = field(default_factory=list)
    cal_at_ns: list[int] = field(default_factory=list)
    cal_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def calibrate(self) -> None:
        self.cal_at_ns.append(perf_counter_ns())
        self.cal_ms.append(calibrate.kernel_ms())


def _report_failure(workload, what: str, stats: LoopStats) -> None:
    """Report a failure, for the first few failures of a loop only."""
    if stats.failed < 3:
        print(f"perfbench: {workload.name}: {what}", file=sys.stderr)


def serve_once(workload, state, request, stats: LoopStats, timed: bool, tracer=None) -> None:
    """Serve one request, time it, check it and count it.  With a tracer,
    the request is traced and its check is not."""
    error = None
    if tracer is not None:
        tracer.begin_request()
    t0 = perf_counter_ns()
    try:
        output = workload.serve(state, request, tracer)
    except Exception:  # a raising request fails; the loop keeps going
        error = "request raised\n" + traceback.format_exc(limit=4)
    t1 = perf_counter_ns()
    if tracer is not None:
        tracer.end_request()
    if error is None:
        try:
            ok = bool(workload.check(request, output))
        except Exception:  # a malformed output fails its request
            error = "output check raised\n" + traceback.format_exc(limit=4)
    if error is not None:
        _report_failure(workload, error, stats)
        ok = False
    if timed:
        stats.starts_ns.append(t0)
        stats.latencies_ns.append(t1 - t0)
    stats.attempted += 1
    stats.failed += not ok


def closed_loop(workload, state, pool, seconds: float) -> LoopStats:
    """One client: the next request is sent when the previous one returns.
    Runs for ``seconds`` of wall time (checks and calibration included, at
    least one request); latencies cover ``serve`` only."""
    stats = LoopStats()
    deadline = perf_counter() + seconds
    next_cal = 0
    i = 0
    while True:
        if perf_counter_ns() >= next_cal:
            stats.calibrate()
            next_cal = perf_counter_ns() + CAL_PERIOD_NS
        serve_once(workload, state, pool[i % len(pool)], stats, timed=True)
        i += 1
        if perf_counter() >= deadline:
            break
    stats.calibrate()
    return stats


def reference_latencies_ms(stats: LoopStats) -> np.ndarray:
    """Each request's latency at the reference speed, scaled by the median
    calibration sample within CAL_WINDOW_NS of its start (the nearest
    sample when none is that close)."""
    t = np.array(stats.starts_ns, dtype=np.int64)
    lat = np.array(stats.latencies_ns, dtype=float) / 1e6
    ct = np.array(stats.cal_at_ns, dtype=np.int64)
    cm = np.array(stats.cal_ms)
    lo = np.searchsorted(ct, t - CAL_WINDOW_NS)
    hi = np.searchsorted(ct, t + CAL_WINDOW_NS, side="right")
    nearest = np.clip(np.searchsorted(ct, t), 0, len(ct) - 1)
    factors = np.array([
        calibrate.speed_factor(cm[a:b] if b > a else cm[n : n + 1])
        for a, b, n in zip(lo, hi, nearest)
    ])
    return lat * factors


def summarize(stats: LoopStats) -> dict:
    """Loop metrics at the reference speed: successful requests per second
    of summed service time, and latency percentiles over every attempted
    request; the wall-clock percentiles ride along for display."""
    ref = reference_latencies_ms(stats)
    wall = np.array(stats.latencies_ns, dtype=float) / 1e6
    p50, p90 = np.percentile(ref, [50, 90])
    ok = stats.attempted - stats.failed
    return {
        "throughput_rps": ok / (ref.sum() / 1e3),
        "latency_p50_ms": float(p50),
        "latency_p90_ms": float(p90),
        "wall_p50_ms": float(np.percentile(wall, 50)),
        "wall_p90_ms": float(np.percentile(wall, 90)),
        "speed": calibrate.speed_factor(stats.cal_ms),
        "samples": int(ref.size),
        "beyond_p90": int(np.sum(ref > p90)),
    }


def prepare(name: str, seed: int):
    """Generate a workload's inputs and build its long-lived objects."""
    workload = WORKLOADS[name]
    inputs = workload.generate(seed)
    print(f"# inputs {json.dumps({'sha256': inputs.digest, 'requests': len(inputs.requests)})}")
    state = [eo.load_document(doc) for doc in inputs.setup_docs]
    return workload, inputs, state


def measure_setup(docs: list[str]) -> tuple[float, float]:
    """Median over fresh processes of ``import effectorder`` plus parsing
    the set-up documents into objects, at the reference speed and on the
    wall clock."""
    job = json.dumps({"src": str(ROOT / "src"), "docs": docs})
    ref, wall = [], []
    for i in range(SETUP_RUNS + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py")],
            input=job, capture_output=True, text=True, timeout=120, check=True,
        )
        if i:
            out = json.loads(proc.stdout.splitlines()[-1])
            wall.append(out["setup_s"])
            ref.append(out["setup_s"] * calibrate.speed_factor(out["cal_ms"]))
    return statistics.median(ref), statistics.median(wall)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _warm_up(workload, state, pool, stats: LoopStats) -> None:
    stats.calibrate()
    for request in pool[:WARMUP_REQUESTS]:
        serve_once(workload, state, request, stats, timed=False)


def run_untraced(name: str, seed: int, seconds: float):
    """End-to-end metrics: set-up in fresh processes, then the closed loop
    over the whole request pool for ``seconds``."""
    workload, inputs, state = prepare(name, seed)
    setup_s, setup_wall = measure_setup(inputs.setup_docs)
    warm = LoopStats()
    _warm_up(workload, state, inputs.requests, warm)
    stats = closed_loop(workload, state, inputs.requests, seconds)
    loop = summarize(stats)
    metrics = {
        "setup_s": setup_s,
        "throughput_rps": loop["throughput_rps"],
        "latency_p50_ms": loop["latency_p50_ms"],
        "latency_p90_ms": loop["latency_p90_ms"],
        "peak_rss_mb": _peak_rss_mb(),
    }
    notes = {
        "setup_s": f"median of {SETUP_RUNS} fresh processes; wall {setup_wall:.4g} s",
        "throughput_rps": f"host speed {loop['speed']:.3f} x reference",
        "latency_p50_ms": f"wall {loop['wall_p50_ms']:.4g} ms",
        "latency_p90_ms": f"wall {loop['wall_p90_ms']:.4g} ms; "
                          f"{loop['samples']} samples, {loop['beyond_p90']} beyond",
    }
    return metrics, (warm.attempted + stats.attempted, warm.failed + stats.failed), notes, []


def run_traced(name: str, seed: int, seconds: float, env: dict):
    """Per-layer metrics: an untraced loop over the traced requests for
    ``seconds``, then one traced pass over them.  Every per-layer metric is
    a mean per traced request, times at the reference speed."""
    workload, inputs, state = prepare(name, seed)
    pool = inputs.requests[: workload.trace_requests]
    warm = LoopStats()
    _warm_up(workload, state, pool, warm)
    untraced = closed_loop(workload, state, pool, seconds)
    untraced_p50 = summarize(untraced)["latency_p50_ms"]
    tracer = Tracer()
    tracer.install(eo, np.linalg)
    traced = LoopStats()
    traced.calibrate()
    for request in pool:
        serve_once(workload, state, request, traced, timed=False, tracer=tracer)
        traced.calibrate()
    speed = calibrate.speed_factor(traced.cal_ms)
    metrics = tracer.layer_metrics(ms_scale=speed)
    traced_p50 = statistics.median(r["wall_ns"] / 1e6 for r in tracer.requests) * speed
    metrics["trace.overhead_frac"] = (traced_p50 - untraced_p50) / untraced_p50
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{name}-seed{seed}.json.gz"
    tracer.write(path, {"workload": name, "seed": seed, "env": env, "speed": speed, "metrics": metrics})
    print(f"# spans {json.dumps({'path': str(path.relative_to(ROOT)), 'count': len(tracer.spans)})}")
    notes = {"trace.overhead_frac": f"traced p50 {traced_p50:.4g} ms vs untraced {untraced_p50:.4g} ms"}
    counts = [warm, untraced, traced]
    return (
        metrics,
        (sum(c.attempted for c in counts), sum(c.failed for c in counts)),
        notes,
        tracer.accounting_errors(),
    )


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload, print its metrics and return the result object."""
    env = environment()
    print(f"# workload {json.dumps({'name': name, 'seed': seed, 'seconds': seconds, 'trace': int(trace)})}")
    print(f"# env {json.dumps(env)}")
    if trace:
        metrics, (attempted, failed), notes, problems = run_traced(name, seed, seconds, env)
        units = {k: per_layer_unit(k) for k in metrics}
    else:
        metrics, (attempted, failed), notes, problems = run_untraced(name, seed, seconds)
        units = END_TO_END_UNITS
    for line in problems:
        print(f"perfbench: trace accounting: {line}", file=sys.stderr)
    rows = [(k, v, units[k], notes.get(k, "")) for k, v in metrics.items()]
    rows.append(("error_rate", failed / attempted, "failed/attempted", f"{failed} of {attempted}"))
    for key, value, unit, note in rows:
        print(f"{key:<32} {value:>14.6g} {unit:<16} {note}".rstrip())
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
