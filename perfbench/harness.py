"""Set-up, the timed loop of operations, and the metrics of one benchmark run."""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import tracing
import workloads

SETUP_REPS = 3
MIN_OPS = 2
MAX_MEASURE_S = 120.0


@dataclass
class Op:
    warm_up: bool
    traced: bool
    seconds: float = math.nan
    calls_ms: list = field(default_factory=list)
    outcome: workloads.Outcome | None = None
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.outcome.problems)


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def set_up(name: str, scale: workloads.Scale, seed: int, work: Path):
    """Config, inputs from the seed, and one warm-up operation at the small scale."""
    wl = workloads.WORKLOADS[name]
    ctx = workloads.make_context(scale, seed, work)
    inputs = wl.prepare(ctx)
    warm = workloads.make_context(workloads.SMALL, seed, work / "warm")
    wl.execute(warm, wl.prepare(warm), [])
    return ctx, inputs


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale, import_s: float, work: Path):
    """Set up ``SETUP_REPS`` times, then run operations for ``seconds``.

    A traced run alternates untraced and traced operations, so the tracing
    overhead is measured in the same run.  Returns the result record.
    """
    wl = workloads.WORKLOADS[name]
    setup_times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        ctx, inputs = set_up(name, scale, seed, work)
        setup_times.append(time.perf_counter() - t0)

    # The first operation warms caches at full scale: it is checked against
    # the oracles and sets the reference digests, but is not timed.
    tracer = tracing.Tracer()
    execute = tracer.span(tracing.OP_SPAN, wl.execute)
    ops: list[Op] = []
    reference: dict[str, str] | None = None
    start = None
    while len(ops) < 1 + MIN_OPS or time.perf_counter() - start < min(seconds, MAX_MEASURE_S):
        op = Op(warm_up=not ops, traced=trace and len(ops) % 2 == 1)
        try:
            if op.traced:
                tracer.install()
            t0 = time.perf_counter()
            try:
                result = (execute if op.traced else wl.execute)(ctx, inputs, op.calls_ms)
                op.seconds = time.perf_counter() - t0
            finally:
                tracer.uninstall()
            op.outcome = wl.inspect(ctx, inputs, result, full=op.warm_up)
        except Exception:
            op.error = traceback.format_exc()
            print(op.error, file=sys.stderr)
        if op.error is None and not op.outcome.problems:
            if reference is None:
                reference = op.outcome.digests
            elif op.outcome.digests != reference:
                op.outcome.problems.append("output digest differs from the first operation")
        ops.append(op)
        if start is None:
            start = time.perf_counter()

    done = [op for op in ops if not op.failed and not op.warm_up]
    plain = [op for op in done if not op.traced]
    warm_up = ops[0]
    n_failed = sum(op.failed for op in ops)
    record = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "correct": n_failed == 0,
        "attempted": len(ops),
        "failed": n_failed,
        "environment": environment(),
        "setup_reps_s": setup_times,
        "import_s": import_s,
        "samples": {"wall": len(plain), "calls": sum(len(op.calls_ms) for op in plain)},
        "digests": reference or {},
        "ops": [
            {
                "warm_up": op.warm_up,
                "traced": op.traced,
                "seconds": op.seconds,
                "problems": op.outcome.problems if op.outcome else [op.error],
                "props": op.outcome.props if op.outcome else {},
            }
            for op in ops
        ],
    }
    if not trace:
        record["metrics"] = {
            "setup_s": import_s + _median(setup_times),
            "wall_s": _median([op.seconds for op in plain]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "call_p50_ms": _median([tracing.percentile(op.calls_ms, 50) for op in plain]),
            "call_p90_ms": _median([tracing.percentile(op.calls_ms, 90) for op in plain]),
        }
    else:
        traced = [op for op in done if op.traced]
        metrics = tracing.layer_metrics(tracer.spans, len(traced), ctx.cfg["trapped_active_floor"])
        metrics["cli.output_bytes"] = _median([op.outcome.output_bytes for op in traced])
        metrics["trace.overhead_s"] = (
            _median([op.seconds for op in traced]) - _median([op.seconds for op in plain])
        )
        metrics["trace.spans"] = len(tracer.spans) / max(1, len(traced))
        metrics["warm_up.wall_s"] = 0.0 if warm_up.failed else warm_up.seconds
        metrics["warm_up.call_p99_ms"] = tracing.percentile(warm_up.calls_ms, 99)
        record["metrics"] = metrics
        record["spans"] = tracer.spans
    return record


# ---------------------------------------------------------------- environment

def _git_sha(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _src_sha256(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment() -> dict:
    import edmcontrol

    src = Path(edmcontrol.__file__).resolve().parent
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # show_config's layout is not a stable API
        blas_name = None
    return {
        "git_sha": _git_sha(src.parent.parent),
        "src_sha256": _src_sha256(src),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "blas_thread_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }

