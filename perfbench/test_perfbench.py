"""Tests of the benchmark itself (not of csaop).

    python3 -m pytest perfbench -q

They run the benchmark at tiny sizes, so they take seconds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import verify  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from csaop import decomp  # noqa: E402
from csaop.antiunitary import AntiunitaryOp  # noqa: E402
from csaop.errors import NotCsa, UnsupportedDegeneracy  # noqa: E402


def bench(workload: str, trace: int, seed: int = 3) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = bench(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["verified_share"]["value"] == 1.0
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_per_layer_metrics_match_the_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.metric_units()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", ["decompose", "cli"])
def test_traced_counts_repeat_exactly(workload):
    first, second = bench(workload, 1), bench(workload, 1)
    assert first["correct"] and second["correct"]
    counts = [
        name for name in first["metrics"]
        if name.endswith((".calls", ".failed")) or name in ("numpy.linalg.svd.work", "serialize.bytes")
    ]
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name
    calls = first["metrics"]
    assert calls["numpy.linalg.svd.calls"]["value"] > 0
    assert calls["csa.check_c_selfadjoint.calls"]["value"] > 0
    if workload == "cli":
        assert calls["cli.main.calls"]["value"] > 0 and calls["serialize.bytes"]["value"] > 0
    else:
        # the refined SVD of a "neither" pair reaches phase_fix per vector
        assert calls["decomp.phase_fix.calls"]["value"] > 0
        assert calls["antiunitary.AntiunitaryOp.init.failed"]["value"] > 0


def test_summary_pools_passes_with_ten_samples_beyond_the_tail():
    # three passes of twenty ops taking 1, 2, ..., 20 ms
    passes = [[1e-3 * (i + 1) for i in range(20)] for _ in range(3)]
    out = worker.summary(passes)
    assert out["samples"] == 60 and out["tail_beyond"] == 10
    assert out["op_tail_ms"] == pytest.approx(17.0)
    assert out["op_p50_ms"] == pytest.approx(10.5)
    assert out["ops_per_s"] == pytest.approx(20 / 0.21)


def test_speed_runs_the_kernel_longer_after_longer_ops(monkeypatch):
    runs = []

    def slow_kernel():
        runs.append(1)
        return 2 * worker.REFERENCE_S

    monkeypatch.setattr(worker, "reference", slow_kernel)
    assert worker.speed(0.0) == pytest.approx(0.5)
    assert len(runs) == worker.REFERENCE_RUNS
    runs.clear()
    worker.speed(10 * worker.REFERENCE_EVERY)
    assert len(runs) == worker.REFERENCE_RUNS + 10


def _pair(n=6, seed=0):
    rng = np.random.default_rng(seed)
    H, A = workloads.takagi_pair(workloads.simple_sigmas(n, rng), rng)
    return H, A, AntiunitaryOp(A)


def _svd_op(H, A, C, expect=None):
    return verify.Op(
        "refined_svd",
        lambda: decomp.refined_svd(H, C),
        lambda r: verify.check_refined_svd(H, A, r.sigmas, r.phis, r.etas),
        expect,
    )


def test_correct_result_is_verified():
    H, A, C = _pair()
    op = _svd_op(H, A, C)
    assert verify.judge(op, op.call(), None) is None


def test_perturbed_phis_are_unverified():
    H, A, C = _pair()
    good = decomp.refined_svd(H, C)
    phis = good.phis.copy()
    phis[0, 0] += 1e-6
    bad = decomp.RefinedSVD(sigmas=good.sigmas, phis=phis, etas=good.etas)
    assert verify.judge(_svd_op(H, A, C), bad, None) is not None


def test_wrong_exception_class_is_unverified():
    H, A, C = _pair()
    op = _svd_op(H, A, C, expect=UnsupportedDegeneracy)
    assert verify.judge(op, None, UnsupportedDegeneracy("x")) is None
    assert verify.judge(op, None, NotCsa("x")) is not None
    assert verify.judge(op, None, ValueError("x")) is not None
    assert verify.judge(op, op.call(), None) is not None


def test_tracer_patches_bindings_and_restores_them():
    import csaop
    from csaop import csa, linalg

    original = csa.check_c_selfadjoint
    cluster = decomp.cluster_indices
    svd = np.linalg.svd
    t = tracer.Tracer()
    t.install()
    try:
        assert csa.check_c_selfadjoint is not original
        assert csaop.check_c_selfadjoint is csa.check_c_selfadjoint
        assert decomp.cluster_indices is linalg.cluster_indices is not cluster
        assert np.linalg.svd is not svd
        H, A, C = _pair()
        t.op = 0
        decomp.refined_svd(H, C)
        np.linalg.matrix_rank(H)  # numpy-internal svd binding
        t.op = None
        summary = t.summarize(1, ["op"])
    finally:
        t.uninstall()
    assert csa.check_c_selfadjoint is original and decomp.cluster_indices is cluster
    assert np.linalg.svd is svd
    assert summary["decomp.refined_svd.calls"] == 1
    assert summary["csa.check_c_selfadjoint.calls"] == 1
    assert summary["numpy.linalg.svd.calls"] == 2
    assert summary["numpy.linalg.svd.work"] == 2 * 6**3


def test_fails_without_sources(tmp_path):
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for path in HERE.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, env=env,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
