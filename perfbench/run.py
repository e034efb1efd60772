"""csaop benchmark.

    python3 perfbench/run.py --workload {generate,decompose,scan,cli} \
        --seed N --seconds S --trace {0,1}

Builds nothing: csaop is imported from ``src/`` of the checkout this file
sits in. Each run starts a fresh worker process (BLAS on one thread) that
works through ``round(S / nominal pass seconds)`` passes of the workload's
fixed op list, with a fixed reference kernel between the ops; the timing
metrics are scaled to the reference speed (see ``worker.speed``).
Set-up-only processes run before and after it, so that ``setup_s`` is a
median. With ``--trace 1`` the worker alternates untraced and traced passes
and the per-layer metrics are printed instead of the end-to-end ones. The
last stdout line is the JSON result; see README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import metric_units  # noqa: E402  (stdlib only)

WORKLOADS = ("generate", "decompose", "scan", "cli")
#: Nominal seconds one full-size pass takes on a 2-core x86 machine with
#: one BLAS thread. Only the pass count is derived from it, so the op list
#: is fixed for a given --seconds; no run is ever cut by a clock.
PASS_SECONDS = {"generate": 2.7, "decompose": 3.4, "scan": 1.95, "cli": 1.5}

#: Set-up-only processes started before and after the measured one (half
#: each); setup_s is the median over all of them.
SETUP_PROBES = 4

#: Seconds one worker may take before it is killed.
WORKER_TIMEOUT = 150

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "verified_share": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _worker(args, mode: str, passes: int) -> tuple[dict, float]:
    """Run one worker process; returns its JSON result and its start time."""
    argv = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--passes", str(passes), "--mode", mode,
    ]
    if args.tiny:
        argv.append("--tiny")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    start = time.monotonic()
    proc = subprocess.run(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), start


def _setup_time(args, passes: int) -> float:
    probe, start = _worker(args, "setup", passes)
    return probe["ready"] - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="seconds-long sizes, for the benchmark's tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "csaop" / "__init__.py").is_file():
        print(f"error: no csaop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    passes = 2 if args.tiny else max(1, round(args.seconds / PASS_SECONDS[args.workload]))
    if args.trace:
        passes = max(2, passes)
    probes = 0 if args.trace else SETUP_PROBES
    try:
        setups = [_setup_time(args, passes) for _ in range(probes // 2)]
        result, start = _worker(args, "trace" if args.trace else "measure", passes)
        setups.append(result["ready"] - start)
        setups += [_setup_time(args, passes) for _ in range(probes - probes // 2)]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print("meta", json.dumps(result["meta"], sort_keys=True))
    print(
        f"{args.workload}: passes={result['passes']} ops={result['attempted']} "
        f"tail=p{result['tail_pct']:.2f} with {result['tail_beyond']} of {result['samples']} samples beyond "
        f"setups={len(setups)}"
    )
    if not args.trace:
        raw = result["unscaled"]
        print(
            f"median speed {result['speed']:.4f}; unscaled: ops_per_s {raw['ops_per_s']:.4f}, "
            f"op_p50_ms {raw['op_p50_ms']:.4f}, op_tail_ms {raw['op_tail_ms']:.4f}"
        )
    failures = {**result["warmup_failures"], **result["failures"]}
    for name, why in failures.items():
        print(f"unverified: {name}: {why}")
    if args.trace:
        print("spans", result["spans_file"])
        values = result["layers"]
        units = metric_units()
    else:
        values = {**result, "setup_s": statistics.median(setups)}
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
