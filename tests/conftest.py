"""Shared builders for the test suite.

``symmetrized_csa`` constructs C-self-adjoint matrices by averaging alone,
``(M + C^{-1} M* C) / 2``. That is the last step of the library's
generator without its projection onto the commutant of ``C^2``, so it is a
projection onto the solution space only when ``C^2 = +-I``, which is
exactly where the tests use it.
"""

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import csaop
from csaop import AntiunitaryOp, InvolutionClass
from csaop.antiunitary import C2_CLUSTER_GAP
from csaop.linalg import CLASSIFY_TOL, DEFAULT_TOL, cayley, fro
from csaop.modelspaces import max_support
from csaop.serialize import ORJSON_MAX_DEPTH, _reject_constant, _unique_keys

J2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def run_fresh(*args: str) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter that imports ``csaop`` from
    the tree under test; any exit code, output captured as text."""
    path = os.pathsep.join(filter(None, [str(Path(csaop.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True
    )


def haar_unitary(n, rng):
    """Haar-distributed random unitary matrix."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def conj_k(n):
    return AntiunitaryOp(np.eye(n))


def c2_blocks(n):
    if n % 2 != 0:
        raise ValueError("c2_blocks needs an even dimension")
    return AntiunitaryOp(np.kron(np.eye(n // 2), J2))


def random_antiunitary(n, seed):
    return AntiunitaryOp(haar_unitary(n, np.random.default_rng(seed)))


def class_operator(kind, n, seed):
    """A Haar-conjugated C of the given involution class: ``V V^T``,
    ``V (I (x) J2) V^T`` (even n only) or a Haar unitary."""
    V = haar_unitary(n, np.random.default_rng(seed))
    if kind == "involutive":
        return AntiunitaryOp(V @ V.T)
    if kind == "anti-involutive":
        return AntiunitaryOp(V @ np.kron(np.eye(n // 2), J2) @ V.T)
    return AntiunitaryOp(V)


def mixed_square(seed):
    """Haar-conjugated block C whose C^2 has eigenvalues +1, -1 and
    e^{+-0.7i}, each twice."""
    twist = np.array([[0.0, 1.0], [np.exp(0.7j), 0.0]])  # C^2 = diag(e^{-0.7i}, e^{0.7i})
    blocks = [np.eye(2), J2, twist, twist]
    A0 = np.zeros((8, 8), dtype=complex)
    for k, block in enumerate(blocks):
        A0[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = block
    V = haar_unitary(8, np.random.default_rng(seed))
    return AntiunitaryOp(V @ A0 @ V.T)


def near_involutive(n, deviation, seed, sign=1):
    """``C = B exp(i eps K)`` with ``||C^2 - sign I||_F`` about ``deviation``,
    ``B = V V^T`` (sign 1) or ``V (I (x) J2) V^T`` (sign -1, even n)."""
    rng = np.random.default_rng(seed)
    V = haar_unitary(n, rng)
    K = random_matrix(n, rng)
    w, U = np.linalg.eigh(K + K.conj().T)
    B = V @ (np.eye(n) if sign == 1 else np.kron(np.eye(n // 2), J2)) @ V.T

    def unitary(eps):
        return B @ (U * np.exp(1j * eps * w)) @ U.conj().T

    def square_deviation(eps):
        A = unitary(eps)
        return fro(A @ np.conj(A) - sign * np.eye(n))

    # the deviation is linear in eps at these sizes
    return AntiunitaryOp(unitary(1e-3 * deviation / square_deviation(1e-3)))


def square_deviations(C):
    """``(||C^2 - I||_F, ||C^2 + I||_F)`` from the dense square ``C.squared()``."""
    square, eye = C.squared(), np.eye(C.dim)
    return fro(square - eye), fro(square + eye)


def classify_by_square(C):
    """Reference for ``classify``: the dense ``C^2`` against ``+-I``."""
    minus, plus = square_deviations(C)
    if minus <= CLASSIFY_TOL.bound(1.0):
        return InvolutionClass.INVOLUTIVE
    if plus <= CLASSIFY_TOL.bound(1.0):
        return InvolutionClass.ANTI_INVOLUTIVE
    return InvolutionClass.NEITHER


def square_split_by_w(C):
    """Reference for ``AntiunitaryOp.square_split``: forms ``W = A^T A*`` and
    tests its distance from ``+-I`` before the Cayley transform, ``eigh`` and
    the angle labels."""
    A, n = C.unitary_part, C.dim
    W = A.T @ A.conj().T
    if min(fro(W - np.eye(n)), fro(W + np.eye(n))) <= C2_CLUSTER_GAP:
        return None
    t, Q = np.linalg.eigh(cayley(W))
    labels, start = np.zeros(n, dtype=int), -np.inf
    for i, psi in enumerate(2 * np.arctan(t)):
        if psi - start > C2_CLUSTER_GAP:
            start, labels[i:] = psi, i
    return Q, labels


def evaluate_symbol(phi, z):
    """Sampling oracle for the model-space symbol identities: ``sum_n phi[n]
    z^n`` at the points ``z`` (scalar or array)."""
    z = np.asarray(z, dtype=complex)
    out = np.zeros_like(z)
    for n, coeff in phi.items():
        out = out + coeff * z ** int(n)
    return out


def condition_and_by_sampling(phi1, phi2, tol=DEFAULT_TOL):
    """Reference for ``modelspaces.check_condition_and``: both identities at
    ``2 s + 4`` equispaced unit-circle points (exact for frequencies within
    ``s + 1``; the two extra points avoid an aliasing cancellation between
    the extreme frequencies), judged at the magnitude capped at 1."""
    s = max(max_support(phi1), max_support(phi2))
    M = 2 * s + 4
    z = np.exp(2j * np.pi * np.arange(M) / M)
    zb = np.conj(z)
    p1, p2 = evaluate_symbol(phi1, z), evaluate_symbol(phi2, z)
    p1b, p2b = evaluate_symbol(phi1, zb), evaluate_symbol(phi2, zb)
    p1nb, p2nb = evaluate_symbol(phi1, -zb), evaluate_symbol(phi2, -zb)
    first = (-zb * p1 + z * p2) - (z * p1b - zb * p2b)
    second = (zb * p1 + z * p2) - (z * p1nb + zb * p2nb)
    magnitude = max((abs(complex(c)) for phi in (phi1, phi2) for c in phi.values()), default=0.0)
    bound = tol.bound(min(1.0, magnitude))
    return bool(np.all(np.abs(first) <= bound) and np.all(np.abs(second) <= bound))


def load_json_by_stdlib(path):
    """Reference for ``serialize.load_json``: the standard decoder alone, on
    the file as text, with the NaN/Infinity and repeated-key hooks."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle, parse_constant=_reject_constant, object_pairs_hook=_unique_keys)
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None


def screen_by_bytes(data: bytes) -> bool:
    """Reference for ``serialize._orjson_reads_like_json``: one loop over the
    bytes that tracks strings, digit runs and bracket depth. Quotes open and
    close strings in turn; a string is a key when its closing quote meets
    ":" or a byte <= 0x20; a run of digits, in a string or not, must not
    reach 19 unless it follows "."; brackets count only outside strings."""
    if b"\\" in data:
        return False
    keys, opened, depth, deepest, run = [], None, 0, 0, 0
    for i, byte in enumerate(data):
        run = run + 1 if byte in b"0123456789" else 0
        if run == 19 and data[i - 19 : i - 18] != b".":  # at i = 18 the slice is empty
            return False
        if byte == ord('"'):
            if opened is None:
                opened = i
            else:
                if data[i + 1 : i + 2] == b":" or b"\x00" <= data[i + 1 : i + 2] <= b" ":
                    keys.append(data[opened + 1 : i])
                opened = None
        elif opened is None and byte in b"[{":
            depth += 1
            deepest = max(deepest, depth)
        elif opened is None and byte in b"]}":
            depth -= 1
    return opened is None and len(set(keys)) == len(keys) and deepest <= ORJSON_MAX_DEPTH


def typed_leaves(obj) -> list:
    """Every key and leaf of ``obj`` in order, with its type; floats as bits."""
    if isinstance(obj, dict):
        return [("dict", len(obj))] + [leaf for k, v in obj.items() for leaf in [("key", k), *typed_leaves(v)]]
    if isinstance(obj, list):
        return [("list", len(obj))] + [leaf for v in obj for leaf in typed_leaves(v)]
    if type(obj) is float:
        return [(float, struct.pack("<d", obj))]
    return [(type(obj), obj)]


def random_matrix(n, rng):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_vector(n, rng):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def symmetrized_csa(M, C):
    """(M + C^{-1} M* C) / 2, C-self-adjoint whenever C^2 = +-I."""
    A = C.unitary_part
    return 0.5 * (M + A.T @ M.T @ np.conj(A))


def hadamard_conjugation(n):
    """(S/sqrt(n)) o K for the n x n Sylvester Hadamard matrix S (n a power of 2).

    S is real and symmetric with S^2 = n I, so this C is involutive."""
    S = np.ones((1, 1))
    while S.shape[0] < n:
        S = np.kron([[1.0, 1.0], [1.0, -1.0]], S)
    return AntiunitaryOp(S / np.sqrt(n))


def overflowing_csa():
    """Exactly C-self-adjoint H whose ||H||_F overflows, with its C.

    H = 1.5e308 in column 0 and C = (S/2) o K (n = 4): S conj(H) S / 4 = H*
    exactly, but ||H||_F = 3e308 and S times column 0 overflows."""
    H = np.zeros((4, 4))
    H[:, 0] = 1.5e308
    return H, hadamard_conjugation(4)


def connected_components(linked):
    """Reference for ``linalg.direct_sum_blocks``: the connected components
    of ``linked | linked.T``, each grown breadth-first from its lowest
    unseen index, as sorted index arrays ordered by first member."""
    linked = np.asarray(linked, dtype=bool)
    linked = linked | linked.T
    np.fill_diagonal(linked, False)
    seen = np.zeros(len(linked), dtype=bool)
    components = []
    for start in range(len(linked)):
        if seen[start]:
            continue
        seen[start] = True
        members = frontier = np.array([start])
        while frontier.size:
            frontier = np.flatnonzero(linked[frontier].any(axis=0) & ~seen)
            seen[frontier] = True
            members = np.concatenate((members, frontier))
        components.append(np.sort(members))
    return components


def random_complex_symmetric(n, rng):
    M = random_matrix(n, rng)
    return 0.5 * (M + M.T)


def overflowing_diagonal(n, seed):
    """Complex symmetric (K-self-adjoint) H of Frobenius norm about
    ``8e307 * sqrt(n / 64)``, every diagonal imaginary part below -9e306:
    at ``im z >= 1.797e308`` each diagonal entry of ``H - z I`` overflows
    while ``||H||_F`` does not."""
    return 1e306 * random_complex_symmetric(n, np.random.default_rng(seed)) / 3 - 1e307j * np.eye(n)


def neither_simple_case(n_kernel, n_range, seed, theta=0.7):
    """C-self-adjoint H with simple nonzero singular values for a C that is
    neither involutive nor anti-involutive.

    Any C-self-adjoint H commutes with the unitary C^2, and a simple
    nonzero singular value forces C^2 to act trivially on the matching
    singular direction, so the only way to exercise the simple-value
    branch with a non-involutive C is to hide the non-involutive action
    of C inside ker H. Here C^2 differs from the identity exactly on the
    leading ``n_kernel`` coordinates, on which H vanishes.
    """
    from csaop import generate_csa

    rng = np.random.default_rng(seed)
    blocks = [np.array([[0.0, 1.0], [np.exp(1j * theta), 0.0]])] * (n_kernel // 2)
    if n_kernel % 2:
        blocks.append(np.eye(1))
    W = np.linalg.qr(
        rng.standard_normal((n_range, n_range)) + 1j * rng.standard_normal((n_range, n_range))
    )[0]
    blocks.append(W @ W.T)  # symmetric unitary: involutive on the range part
    n = n_kernel + n_range
    A = np.zeros((n, n), dtype=complex)
    offset = 0
    for blk in blocks:
        d = blk.shape[0]
        A[offset : offset + d, offset : offset + d] = blk
        offset += d
    C = AntiunitaryOp(A)
    H = np.zeros_like(A)
    H[n_kernel:, n_kernel:] = generate_csa(AntiunitaryOp(blocks[-1]), seed)
    return H, C


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
