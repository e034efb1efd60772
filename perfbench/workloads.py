"""Inputs and fixed operation lists of the four workloads.

Every input is drawn from the benchmark seed with numpy's generator and
built here (Haar unitaries, Takagi forms, symmetrisation), never by
``generate_csa``; the library only receives the finished matrices, files
and argument lists. Sizes are fixed per workload, so every seed costs the
same work and only the values change. Each op calls csaop through a
module attribute at call time, so the traced run sees the outermost call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from csaop import antieig, cli, csa, decomp, pauli, serialize
from csaop.antiunitary import AntiunitaryOp
from csaop.errors import UnsupportedDegeneracy, ZInSpectrum

import verify
from verify import Op

WORKLOADS = ("generate", "decompose", "scan", "cli")

KINDS = ("involutive", "anti-involutive", "neither")


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of every workload; only the values depend on the seed."""

    gen_dims: tuple[int, ...] = (8, 12, 16, 20)
    #: Two repeat ops per C put the pooled median (ops 18 and 19 of 36 by
    #: time) in the middle of the four n=16 involutive and anti-involutive
    #: repeat ops. With three, it fell on the gap between the n=12 and n=16
    #: ones and jumped between them.
    gen_repeat_ops: int = 2
    gen_repeat_seeds: int = 12
    dec_dims: tuple[int, ...] = (64, 256)
    dec_cluster: int = 64
    scan_momenta: int = 80
    scan_random: int = 120
    scan_res: int = 16
    cli_dims: tuple[int, ...] = (32, 128)
    cli_gen_dims: tuple[int, ...] = (8, 12)
    cli_res: tuple[int, ...] = (8, 6)
    cli_pauli_points: int = 2001
    cli_toeplitz: int = 128


FULL = Sizes()
#: Seconds-long sizes for the benchmark's own tests.
TINY = Sizes(
    gen_dims=(4, 6),
    gen_repeat_seeds=2,
    dec_dims=(8, 16),
    dec_cluster=4,
    scan_momenta=6,
    scan_random=10,
    scan_res=4,
    cli_dims=(6, 8),
    cli_gen_dims=(4,),
    cli_res=(3, 3),
    cli_pauli_points=11,
    cli_toeplitz=8,
)


@dataclass
class Bench:
    """Warm-up ops (never timed) and the fixed op list of every pass."""

    warmup: list[Op]
    passes: list[list[Op]]


def build(workload: str, seed: int, passes: int, sizes: Sizes, workdir: Path) -> Bench:
    index = WORKLOADS.index(workload)

    def rng(stream: int) -> np.random.Generator:
        return np.random.default_rng([seed % 2**63, index, stream])

    # warm-up inputs come from their own stream and use the smallest sizes
    warm = rng(10**6)
    if workload == "generate":
        return Bench(
            _generate_ops(sizes.gen_dims[:1], 1, 1, warm),
            [
                _generate_ops(sizes.gen_dims, sizes.gen_repeat_ops, sizes.gen_repeat_seeds, rng(p))
                for p in range(passes)
            ],
        )
    if workload == "decompose":
        ops = _decompose_ops(sizes.dec_dims, sizes.dec_cluster, rng(0))
        return Bench(_decompose_ops(sizes.dec_dims[:1], sizes.dec_cluster // 4, warm), [ops] * passes)
    if workload == "scan":
        ops = _scan_ops(sizes.scan_momenta, sizes.scan_random, sizes.scan_res, rng(0))
        return Bench(_scan_ops(6, 10, 4, warm), [ops] * passes)
    if workload == "cli":
        fixed = _cli_ops(sizes, rng(0), workdir)
        gen = [_cli_gen_ops(sizes.cli_gen_dims, rng(p + 1), workdir, f"p{p}") for p in range(passes)]
        warm_sizes = Sizes(cli_dims=sizes.cli_dims[:1], cli_res=sizes.cli_res[:1], cli_toeplitz=8)
        return Bench(
            _cli_ops(warm_sizes, warm, workdir / "warm") + _cli_gen_ops((4,), warm, workdir / "warm", "w"),
            [fixed + g for g in gen],
        )
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------- inputs


def haar(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def unitary_part(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """``V V^T`` (involutive), ``V J2 V^T`` (anti-involutive) or Haar (neither)."""
    V = haar(n, rng)
    if kind == "involutive":
        return V @ V.T
    if kind == "anti-involutive":
        return V @ np.kron(np.eye(n // 2), [[0.0, 1.0], [-1.0, 0.0]]) @ V.T
    return V


def simple_sigmas(n: int, rng: np.random.Generator) -> np.ndarray:
    """n values in [1, 2) at least 0.6/n apart."""
    return 1.0 + (np.arange(n) + rng.uniform(-0.2, 0.2, n)) / n


def takagi_pair(sigmas: np.ndarray, rng: np.random.Generator):
    """Involutive ``C = V K V*`` and ``H = V Q diag(sigmas) Q^T V*``.

    ``Q diag(sigmas) Q^T`` is complex symmetric, hence K-self-adjoint, so
    H is C-self-adjoint with singular values exactly ``sigmas``.
    """
    n = len(sigmas)
    V, Q = haar(n, rng), haar(n, rng)
    return V @ (Q * sigmas) @ Q.T @ V.conj().T, V @ V.T


def symmetrised_pair(n: int, rng: np.random.Generator):
    """Anti-involutive C and ``H = (X + C^-1 X* C) / 2`` scaled to ||H||_2 = 2."""
    A = unitary_part("anti-involutive", n, rng)
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    H = (X + A.T @ X.T @ A.conj()) / 2
    return 2.0 * H / np.linalg.norm(H, 2), A


def neither_pair(sigmas: np.ndarray, rng: np.random.Generator):
    """C neither involutive nor anti-involutive, with H of 2-dim kernel.

    ``C = W (C1 (+) B) W*`` with a generic 2x2 unitary B acting exactly on
    ker H, so every nonzero singular value stays simple and the refined
    SVD takes the ``phase_fix`` path.
    """
    m = len(sigmas)
    H1, A1 = takagi_pair(sigmas, rng)
    H0 = np.zeros((m + 2, m + 2), complex)
    A0 = np.zeros((m + 2, m + 2), complex)
    H0[:m, :m], A0[:m, :m], A0[m:, m:] = H1, A1, haar(2, rng)
    W = haar(m + 2, rng)
    return W @ H0 @ W.conj().T, W @ A0 @ W.T


def _shift(rng: np.random.Generator) -> complex:
    """A shift of modulus 3, outside the disc |z| <= ||H||_2 <= 2.5."""
    return complex(3.0 * np.exp(2j * np.pi * rng.uniform()))


# ---------------------------------------------------------------- generate


def _generate_ops(dims, repeat_ops, repeat_seeds, rng) -> list[Op]:
    """Per fresh C: one first call (nullspace solve), then repeat calls
    that the basis cache serves, ``repeat_seeds`` calls per op."""
    ops = []
    for n in dims:
        for kind in KINDS:
            A = unitary_part(kind, n, rng)
            C = AntiunitaryOp(A)
            seeds = [int(s) for s in rng.integers(0, 2**31, 1 + repeat_ops * repeat_seeds)]
            ops.append(_gen_op(f"generate/first/{kind}/n{n}", C, A, seeds[:1]))
            for r in range(repeat_ops):
                chunk = seeds[1 + r * repeat_seeds : 1 + (r + 1) * repeat_seeds]
                ops.append(_gen_op(f"generate/repeat/{kind}/n{n}", C, A, chunk))
    return ops


def _gen_op(name, C, A, seeds) -> Op:
    def check(result):
        for H in result:
            verify.check_csa(H, A)

    return Op(name, lambda: [csa.generate_csa(C, s) for s in seeds], check)


# ---------------------------------------------------------------- decompose


def _decompose_ops(dims, cluster, rng) -> list[Op]:
    """polar, refined SVD and two eigensystems per prebuilt pair."""
    ops = []
    for n in dims:
        ops += _pair_ops(f"involutive/n{n}", *takagi_pair(simple_sigmas(n, rng), rng), rng)
    n = dims[-1]
    # the cluster above, amid (halfway between two of the simple values'
    # nominal positions) and below the simple values: three refined SVDs of
    # about the same cost top the list, so the pooled tail (10 samples
    # beyond) falls in the middle of their samples, not on a noisy maximum
    m = n - cluster
    for where, value in (("top", 2.5), ("amid", 1.0 + (m // 2 + 0.5) / m), ("bottom", 0.5)):
        sigmas = np.concatenate([np.full(cluster, value), simple_sigmas(m, rng)])
        ops += _pair_ops(f"cluster{cluster}-{where}/n{n}", *takagi_pair(sigmas, rng), rng)
    for n in dims:
        ops += _pair_ops(f"neither/n{n}", *neither_pair(simple_sigmas(n - 2, rng), rng), rng)
    for n in dims:
        ops += _pair_ops(f"anti-involutive/n{n}", *symmetrised_pair(n, rng), rng)
    return ops


def _pair_ops(label, H, A, rng) -> list[Op]:
    verify.check_csa(H, A)  # a failure here is a bug in the construction
    C = AntiunitaryOp(A)
    anti = label.startswith("anti")
    ops = [
        Op(
            f"decompose/refined_polar/{label}",
            lambda: decomp.refined_polar(H, C),
            lambda r: verify.check_polar(H, A, r.absH, r.U, r.J.matrix),
        ),
        Op(
            f"decompose/refined_svd/{label}",
            lambda: decomp.refined_svd(H, C),
            lambda r: verify.check_refined_svd(H, A, r.sigmas, r.phis, r.etas),
            UnsupportedDegeneracy if anti else None,
        ),
    ]
    if label.startswith("neither"):
        # 0 is an eigenvalue (H has a kernel): the shift is in the spectrum
        return ops + [
            Op(f"decompose/eigensystem/{label}/z0", lambda: antieig.antilinear_eigensystem(H, C, 0j), None, ZInSpectrum)
        ]
    for j in range(2):
        ops.append(_eig_op(f"decompose/eigensystem/{label}/z{j + 1}", H, A, C, _shift(rng), anti))
    return ops


def _eig_op(name, H, A, C, z, anti) -> Op:
    return Op(
        name,
        lambda: antieig.antilinear_eigensystem(H, C, z),
        lambda r: verify.check_eigensystem(H, A, z, r.z, r.lambdas, r.psis),
        UnsupportedDegeneracy if anti else None,
    )


# ---------------------------------------------------------------- scan

#: (alpha, window) of the spin toy model: a parabola arc at alpha < 0, a
#: real half-line at alpha >= 0 (see pauli's module docstring).
TOY = ((-1.5, (-1.0, 10.0, -4.5, 4.5)), (0.5, (-1.0, 12.0, -2.0, 2.0)))


def _scan_ops(momenta, random_dim, res, rng) -> list[Op]:
    k_grid = np.linspace(-3.0, 3.0, momenta)
    ops = []
    for alpha, window in TOY:
        # a fixed window: the cost of an SVD of the block-diagonal toy
        # matrix depends on the shift, so a seeded window would make the
        # work depend on the seed
        sample = rng.choice(res * res, 4, replace=False)
        ops.append(_toy_scan_op(alpha, k_grid, window, res, sample))
    H, A = symmetrised_pair(random_dim, rng)
    verify.check_csa(H, A)
    bounds = tuple(b + rng.uniform(-0.1, 0.1) for b in (-2.5, 2.5, -2.5, 2.5))
    sample = rng.choice(res * res, 4, replace=False)

    def check(grid):
        verify.check_pseudospectrum(
            H, 0.05, bounds, res, grid.zs, grid.resolvent_norms, grid.in_pseudospectrum, sample
        )

    ops.append(Op(f"scan/random/n{random_dim}", lambda: antieig.pseudospectrum(H, 0.05, bounds, res), check))
    return ops


def _toy_scan_op(alpha, k_grid, bounds, res, sample) -> Op:
    epsilon = 0.1

    def call():
        H, C2, _ = pauli.discretize(alpha, k_grid)
        return H, C2, antieig.pseudospectrum(H, epsilon, bounds, res)

    def check(result):
        H, C2, grid = result
        verify.check_pauli(H, C2.unitary_part, alpha, k_grid)
        verify.check_pseudospectrum(
            H, epsilon, bounds, res, grid.zs, grid.resolvent_norms, grid.in_pseudospectrum, sample
        )

    return Op(f"scan/toy/alpha{alpha:+g}/n{2 * len(k_grid)}", call, check)


# ---------------------------------------------------------------- cli


def _matrix_json(M) -> dict:
    M = np.asarray(M, dtype=complex)
    return {
        "rows": M.shape[0],
        "cols": M.shape[1],
        "data": [[float(x.real), float(x.imag)] for x in M.ravel()],
    }


def _write(path: Path, obj) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj))
    return str(path)


def _antiunitary_json(A) -> dict:
    return {"kind": "antiunitary", "unitary_part": _matrix_json(A)}


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``csaop.cli.main`` in-process; returns the exit code and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
    return code, err.getvalue()


def _load_matrix(path) -> np.ndarray:
    return serialize.matrix_from_json(serialize.load_json(path))


def _cli_op(name, argv, check) -> Op:
    """An op whose output file (the value after ``--out``) ``check`` verifies.

    Output bytes already verified on an earlier pass count as verified.
    """
    out = Path(argv[argv.index("--out") + 1])
    verified = set()

    def checked(result):
        code, err = result
        verify.need(code == 0, f"exit code {code}: {err.strip()}")
        digest = hashlib.sha1(out.read_bytes()).digest()
        if digest not in verified:
            check()
            verified.add(digest)

    return Op(f"cli/{name}", lambda: run_cli(argv), checked)


def _read_csv(path) -> list[list[str]]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return [line.split(",") for line in lines[1:]]


def _cli_ops(sizes: Sizes, rng, workdir: Path) -> list[Op]:
    ops = []
    for n, res in zip(sizes.cli_dims, sizes.cli_res):
        H, A = takagi_pair(simple_sigmas(n, rng), rng)
        verify.check_csa(H, A)
        h = _write(workdir / f"H{n}.json", _matrix_json(H))
        c = _write(workdir / f"C{n}.json", _antiunitary_json(A))
        out = str(workdir / f"out{n}")
        ops += _cli_matrix_ops(n, H, A, h, c, out, rng, res)
    n = sizes.cli_dims[0]
    H, A = takagi_pair(simple_sigmas(n, rng), rng)
    bad = _write(workdir / "notcsa.json", _matrix_json(H + 0.1 * haar(n, rng)))
    c = _write(workdir / "notcsa-C.json", _antiunitary_json(A))

    def exits_one(result):
        code, err = result
        verify.need(code == 1 and err.startswith("error:"), f"exit code {code}, expected 1")

    ops.append(Op(f"cli/polar-notcsa/n{n}", lambda: run_cli(["polar", "--H", bad, "--C", c]), exits_one))
    ops.append(_cli_pauli_op(sizes.cli_pauli_points, workdir))
    ops.append(_cli_toeplitz_op(sizes.cli_toeplitz, rng, workdir))
    return ops


def _cli_matrix_ops(n, H, A, h, c, out, rng, res) -> list[Op]:
    def check_report():
        report = serialize.load_json(out + "-check.json")
        verify.need(report["is_csa"] is True, "reported not C-self-adjoint")
        verify.need(0 <= report["residual"] <= verify.TOL * np.linalg.norm(H), "reported residual")

    def check_polar():
        obj = serialize.load_json(out + "-polar.json")
        absH, U, J = (serialize.matrix_from_json(obj[key]) for key in ("absH", "U", "J"))
        verify.check_polar(H, A, absH, U, J)

    def check_svd():
        obj = serialize.load_json(out + "-svd.json")
        verify.check_refined_svd(
            H, A, np.array(obj["sigmas"]),
            serialize.matrix_from_json(obj["phis"]), serialize.matrix_from_json(obj["etas"]),
        )

    z = _shift(rng)

    def check_eig():
        obj = serialize.load_json(out + "-eig.json")
        verify.check_eigensystem(
            H, A, z, complex(*obj["z"]), np.array(obj["lambdas"]), serialize.matrix_from_json(obj["psis"])
        )

    bounds = tuple(b + rng.uniform(-0.1, 0.1) for b in (-3.0, 3.0, -3.0, 3.0))
    sample = rng.choice(res * res, 3, replace=False)

    def check_scan():
        rows = _read_csv(out + "-scan.csv")
        zs = np.array([complex(float(r[0]), float(r[1])) for r in rows])
        norms = np.array([float(r[2]) for r in rows])
        verify.check_pseudospectrum(H, 0.2, bounds, res, zs, norms, [r[3] == "1" for r in rows], sample)

    hc = ["--H", h, "--C", c]
    grid = ",".join(repr(b) for b in bounds)
    return [
        _cli_op(f"check/n{n}", ["check", *hc, "--out", out + "-check.json"], check_report),
        _cli_op(f"polar/n{n}", ["polar", *hc, "--out", out + "-polar.json"], check_polar),
        _cli_op(f"refined-svd/n{n}", ["refined-svd", *hc, "--out", out + "-svd.json"], check_svd),
        _cli_op(f"anti-eig/n{n}", ["anti-eig", *hc, "--z", f"{z.real!r},{z.imag!r}", "--out", out + "-eig.json"], check_eig),
        _cli_op(
            f"pseudospec/n{n}",
            ["pseudospec", "--H", h, "--epsilon", "0.2", "--grid", grid, "--res", str(res), "--out", out + "-scan.csv"],
            check_scan,
        ),
    ]


def _cli_gen_ops(dims, rng, workdir: Path, tag: str) -> list[Op]:
    """gen-csa on a C no earlier op has used: every CLI process starts
    with a cold basis cache."""
    ops = []
    for n in dims:
        A = unitary_part(KINDS[n % 3], n, rng)
        c = _write(workdir / f"gen-C{n}-{tag}.json", _antiunitary_json(A))
        out = str(workdir / f"gen-H{n}.json")
        seed = str(int(rng.integers(0, 2**31)))
        ops.append(
            _cli_op(f"gen-csa/n{n}", ["gen-csa", "--C", c, "--seed", seed, "--out", out],
                    lambda out=out, A=A: verify.check_csa(_load_matrix(out), A))
        )
    return ops


def _cli_pauli_op(points: int, workdir: Path) -> Op:
    alpha, kmax = -1.5, 3.0
    out = str(workdir / "pauli.csv")

    def check():
        rows = np.array([[float(x) for x in r] for r in _read_csv(out)])
        verify.need(rows.shape == (points, 5), "pauli-spectrum rows")
        k = rows[:, 0]
        verify.need(np.max(np.abs(k - np.linspace(-kmax, kmax, points))) <= 1e-12, "momentum grid")
        for lam in (rows[:, 1] + 1j * rows[:, 2], rows[:, 3] + 1j * rows[:, 4]):
            # eigenvalues of [[k^2, k], [alpha k, k^2]]: (k^2 - lam)^2 = alpha k^2
            residual = np.abs((k * k - lam) ** 2 - alpha * k * k)
            verify.need(np.all(residual <= 1e-9 * (1 + k**4)), "pauli eigenvalue residual")

    argv = ["pauli-spectrum", f"--alpha={alpha!r}", "--kmax", repr(kmax), "--n", str(points), "--out", out]
    return _cli_op("pauli-spectrum", argv, check)


def _cli_toeplitz_op(N: int, rng, workdir: Path) -> Op:
    phi1, phi2 = ({int(j): complex(*rng.standard_normal(2)) for j in range(-3, 4)} for _ in range(2))
    p1 = _write(workdir / "phi1.json", {"fourier": {str(j): [c.real, c.imag] for j, c in phi1.items()}})
    p2 = _write(workdir / "phi2.json", {"fourier": {str(j): [c.real, c.imag] for j, c in phi2.items()}})
    out = str(workdir / "toeplitz.json")

    def check():
        obj = serialize.load_json(out)
        T = serialize.matrix_from_json(obj["H"])
        own = np.array(
            [[(phi1 if col % 2 == 0 else phi2).get(row - col, 0) for col in range(N)] for row in range(N)],
            dtype=complex,
        )
        verify.need(np.array_equal(T, own), "T[m, n] != phi[m - n]")
        pairing = np.kron(np.eye(N // 2), [[0.0, -1.0], [1.0, 0.0]])
        A = serialize.matrix_from_json(obj["C"]["unitary_part"])
        verify.need(np.array_equal(A, pairing), "pairing conjugation")

    argv = ["model-space", "--toeplitz", "--phi1", p1, "--phi2", p2, "--N", str(N), "--out", out]
    return _cli_op(f"model-space-toeplitz/n{N}", argv, check)
