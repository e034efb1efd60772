"""Shared builders for the test suite.

``symmetrized_csa`` constructs C-self-adjoint matrices by averaging alone,
``(M + C^{-1} M* C) / 2``. That is the last step of the library's
generator without its projection onto the commutant of ``C^2``, so it is a
projection onto the solution space only when ``C^2 = +-I``, which is
exactly where the tests use it.
"""

import numpy as np
import pytest

from csaop import AntiunitaryOp

J2 = np.array([[0.0, -1.0], [1.0, 0.0]])


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
