"""One workload run in a fresh process: set up, warm up, then time a fixed
number of passes over the workload's fixed op list, each op time scaled to
the reference speed measured right after it.

Started by ``run.py``; prints one JSON object as its last stdout line.
BLAS is pinned to one thread before numpy is imported.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import csaop  # noqa: E402

if not Path(csaop.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"csaop imported from {csaop.__file__}, not from this checkout")

import tracer as tracing  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

#: Pooled samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10

#: Mean seconds of ``reference()`` on an otherwise idle 2-core x86-64 VM
#: (Xeon at 2.1 GHz, one BLAS thread); see ``speed``.
REFERENCE_S = 0.002
#: Reference-kernel runs after each timed op: REFERENCE_RUNS, plus one per
#: REFERENCE_EVERY seconds the op took, so long ops are covered as densely
#: as short ones.
REFERENCE_RUNS = 2
REFERENCE_EVERY = 0.05

_REF_RNG = np.random.default_rng(0)
_REF_BIG = _REF_RNG.standard_normal((64, 64)) + 1j * _REF_RNG.standard_normal((64, 64))
_REF_SMALL = _REF_BIG[:8, :8].copy()


def metadata() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def reference() -> float:
    """Seconds of a fixed kernel that uses no csaop code: a 64x64 complex
    SVD, a pure-Python loop and small numpy products, the three kinds of
    work csaop's ops are made of."""
    start = time.perf_counter()
    np.linalg.svd(_REF_BIG)
    x = 0
    for i in range(8000):
        x += i * i % 7
    for _ in range(60):
        (_REF_SMALL @ _REF_SMALL.conj().T + _REF_SMALL.T).sum()
    return time.perf_counter() - start


def speed(op_seconds: float) -> float:
    """Run the reference kernel after an op; returns how fast the machine
    ran against REFERENCE_S (below 1 when it ran slow).

    Other tenants share this machine's cores and slow everything in it by
    15-35% for seconds to minutes at a time. The kernel, run right after
    each op and for longer after longer ops, is slowed by the same phase,
    so an op time multiplied by ``speed`` is its time at the reference
    speed: a change to csaop moves it and a busy neighbour much less. No
    csaop change can move the kernel itself. The mean, not the median, of
    the kernel's runs, because an op of 50-500 ms averages over the
    neighbours' bursts as the mean of 2-ms runs does.
    """
    runs = REFERENCE_RUNS + int(op_seconds / REFERENCE_EVERY)
    return REFERENCE_S / statistics.fmean(reference() for _ in range(runs))


def run_ops(
    ops, failures: dict, tracer=None, first_id: int = 0, speeds: list[float] | None = None
) -> tuple[list[float], int]:
    """Time each op; verification runs after the clock stops. Returns the
    times and the number of unverified ops, whose reasons go to ``failures``.
    With ``speeds``, the ``speed`` after each op is appended there."""
    times, failed = [], 0
    for offset, op in enumerate(ops):
        if tracer is not None:
            tracer.op = first_id + offset
        start = time.perf_counter()
        try:
            result, error = op.call(), None
        except Exception as exc:
            result, error = None, exc
        times.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.op = None
        if speeds is not None:
            speeds.append(speed(times[-1]))
        why = verify.judge(op, result, error)
        if why is not None:
            failed += 1
            failures.setdefault(op.name, why)
        del result  # so the next op's peak RSS does not include it
    return times, failed


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest nearest-rank percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(samples)
    rank = max(1, len(ordered) - TAIL_BEYOND)
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        sizes = workloads.TINY if args.tiny else workloads.FULL
        bench = workloads.build(args.workload, args.seed, args.passes, sizes, workdir)
        warm_failures: dict[str, str] = {}
        run_ops(bench.warmup, warm_failures)
        gc.collect()
        ready = time.monotonic()
        if args.mode == "setup":
            print(json.dumps({"ready": ready}))
            return 0
        result = measure(bench, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(ready=ready, warmup_failures=warm_failures, meta=metadata())
    print(json.dumps(result))
    return 0


def summary(passes: list[list[float]]) -> dict:
    """ops_per_s (median over passes), op_p50_ms and op_tail_ms (pooled)."""
    pooled = [t for times in passes for t in times]
    value, pct, beyond = tail(pooled)
    return {
        "ops_per_s": statistics.median(len(times) / sum(times) for times in passes),
        "op_p50_ms": 1e3 * statistics.median(pooled),
        "op_tail_ms": 1e3 * value,
        "tail_pct": pct,
        "tail_beyond": beyond,
        "samples": len(pooled),
    }


def measure(bench, args) -> dict:
    failures: dict[str, str] = {}
    tracer = tracing.Tracer() if args.mode == "trace" else None
    op_names = [op.name for ops in bench.passes for op in ops]
    measured = {False: [], True: []}
    scaled = []
    first_id = failed = 0
    for index, ops in enumerate(bench.passes):
        traced = tracer is not None and index % 2 == 1
        speeds = None if traced else []
        gc.collect()
        if traced:
            tracer.install()
        try:
            times, unverified = run_ops(ops, failures, tracer if traced else None, first_id, speeds)
        finally:
            if traced:
                tracer.uninstall()
        first_id += len(ops)
        failed += unverified
        measured[traced].append(times)
        if not traced:
            scaled.append([t * s for t, s in zip(times, speeds)])
    attempted = len(op_names)
    out = {
        "passes": len(bench.passes),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        **summary(scaled),
        "unscaled": summary(measured[False]),
        "speed": statistics.median(s / t for times, row in zip(measured[False], scaled) for t, s in zip(times, row)),
        "verified_share": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        layers = tracer.summarize(len(measured[True]), op_names)
        overhead = summary(measured[True])["ops_per_s"] / out["unscaled"]["ops_per_s"]
        layers["trace.overhead_share"] = 1.0 - overhead
        out["layers"] = layers
        spans = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.dump(spans, op_names)
        out["spans_file"] = str(spans.relative_to(ROOT))
    return out


if __name__ == "__main__":
    sys.exit(main())
