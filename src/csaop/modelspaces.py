"""Finite model spaces, their conjugations, and generalized Toeplitz matrices.

The model space cut out of the Hardy space by the inner function ``z^N``
is exactly the polynomials of degree < N, so everything here is honest
finite-dimensional linear algebra on coefficient vectors ``(a_0, ...,
a_{N-1})``. Only monomial inner functions are supported; general inner
functions would require approximation theory with no exact content.

Symbols of multiplication operators are finitely supported Fourier
coefficient maps ``{n: coefficient}`` (trigonometric polynomials), so an
identity between symbols is a finite set of identities between coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .antiunitary import AntilinearMap, AntiunitaryOp, InvolutionClass, classify
from .csa import CsaReport, check_c_selfadjoint
from .errors import DimMismatch, HypothesisViolated, NonFinite, OddDimension
from .linalg import DEFAULT_TOL, Tolerance, as_matrix, fro

Symbol = dict[int, complex]

#: Largest imaginary part :func:`theta_condition_check` accepts, relative to
#: the largest coefficient magnitude (about 5000 eps) and so at any scale.
THETA_IMAG_TOL = 1e-12


def _flip(n: int) -> np.ndarray:
    """Antidiagonal permutation (coefficient reversal)."""
    return np.fliplr(np.eye(n))


def conjugation_c_gamma(N: int) -> AntiunitaryOp:
    """The natural conjugation on the degree-< N model space.

    Acts as ``(a_0, ..., a_{N-1}) -> (conj(a_{N-1}), ..., conj(a_0))``
    (reverse and conjugate); involutive for every N.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    return AntiunitaryOp(_flip(N))


def conjugation_c_alphabeta(p: int, q: int, xi: float) -> AntiunitaryOp:
    """Twisted conjugation on the degree-< (p+q) model space.

    Splits ``f`` into its degree-< p head and the degree-< q tail, applies
    the natural conjugation to each part, swaps them, and twists the swapped
    tail by the phase ``exp(i xi)``:
    output ``= (exp(i xi) * rev-conj(tail), rev-conj(head))``.

    With ``p = q`` and ``xi = 0`` this is exactly
    ``conjugation_c_gamma(2 p)``; with ``xi = pi`` it squares to ``-I``.
    """
    if p < 1 or q < 1:
        raise ValueError("p and q must be at least 1")
    twist = np.exp(1j * xi)
    for unit in (1.0, -1.0, 1j, -1j):
        # half- and quarter-turn twists come out exact despite pi rounding
        if abs(twist - unit) <= 4 * np.finfo(float).eps:
            twist = unit
    n = p + q
    A = np.zeros((n, n), dtype=complex)
    A[:q, p:] = twist * _flip(q)
    A[q:, :p] = _flip(p)
    return AntiunitaryOp(A)


def example1_matrix(a11, a12, a13, a21, a22, a31) -> np.ndarray:
    """Structured 4x4 matrix that is C-self-adjoint for the pi-twisted
    conjugation ``conjugation_c_alphabeta(2, 2, pi)`` for any parameters."""
    return np.array(
        [
            [a11, a12, a13, 0],
            [a21, a22, 0, -a13],
            [a31, 0, a22, a12],
            [0, -a31, a21, a11],
        ],
        dtype=complex,
    )


def example2_conjugation(N: int) -> AntiunitaryOp:
    """Anti-involutive conjugation pairing consecutive coefficients.

    Acts on pairs as ``(a_{2k}, a_{2k+1}) -> (-conj(a_{2k+1}), conj(a_{2k}))``;
    its square is ``-I`` and its adjoint is its negative.
    """
    if N % 2 != 0:
        raise OddDimension("the pairing conjugation needs an even dimension")
    pair = np.array([[0.0, -1.0], [1.0, 0.0]])
    return AntiunitaryOp(np.kron(np.eye(N // 2), pair))


def example2_matrix(a11, a13, a14, a23, a24, a33) -> np.ndarray:
    """Structured 4x4 matrix that is C-self-adjoint for
    ``example2_conjugation(4)`` for any parameters."""
    return np.array(
        [
            [a11, 0, a13, a14],
            [0, a11, a23, a24],
            [a24, -a14, a33, 0],
            [-a23, a13, 0, a33],
        ],
        dtype=complex,
    )


def evaluate_symbol(phi: Symbol, z) -> np.ndarray:
    """Evaluate ``sum_n phi[n] z^n`` at points ``z`` (scalar or array)."""
    z = np.asarray(z, dtype=complex)
    out = np.zeros_like(z)
    for n, coeff in phi.items():
        out = out + coeff * z ** int(n)
    return out


def _magnitude(*symbols: Symbol) -> float:
    """Largest coefficient magnitude (0 if none); NonFinite unless finite."""
    mag = float(np.max([abs(complex(c)) for phi in symbols for c in phi.values()], initial=0.0))
    if not mag < np.inf:  # NaN too
        raise NonFinite("symbol coefficients must have finite magnitudes")
    return mag


def max_support(phi: Symbol) -> int:
    """Largest absolute Fourier index carried by the symbol (0 if empty)."""
    return max((abs(int(n)) for n, c in phi.items() if c != 0), default=0)


def theta_condition_check(theta: Symbol) -> bool:
    """Whether an analytic symbol satisfies
    ``theta(conj(z)) = theta(-conj(z)) = conj(theta(z))``.

    At the coefficient level: even indices only, imaginary parts within
    :data:`THETA_IMAG_TOL` times the largest magnitude at every scale
    (:class:`NonFinite` if not finite). Needs nonnegative support.
    """
    if any(int(n) < 0 and c != 0 for n, c in theta.items()):
        raise ValueError("theta must be supported on nonnegative indices")
    bound = THETA_IMAG_TOL * _magnitude(theta)
    return all(c == 0 or (int(n) % 2 == 0 and abs(complex(c).imag) <= bound) for n, c in theta.items())


def build_T(phi1: Symbol, phi2: Symbol, N: int) -> np.ndarray:
    """Compression of the parity-split symbol operator to degree < N.

    The operator applies ``phi1`` to the even part of the input and
    ``phi2`` to the odd part, then projects back to the analytic side;
    acting on the monomial basis this selects the symbol by column parity:
    ``T[m, n] = phi1[m - n]`` for even ``n``, ``phi2[m - n]`` for odd ``n``.
    Both symbols are tabulated once over the offsets ``1 - N ... N - 1``,
    and ``T`` is read from that ``(2, 2N - 1)`` table by column parity and
    offset.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    offsets = range(1 - N, N)
    table = np.array([[phi.get(d, 0.0) for d in offsets] for phi in (phi1, phi2)], dtype=complex)
    m, n = np.indices((N, N))
    return table[n % 2, m - n + N - 1]


def check_condition_and(phi1: Symbol, phi2: Symbol) -> bool:
    """Test of the two symbol identities equivalent to the parity-split
    operator being self-adjoint up to the pairing conjugation:

        -conj(z) phi1(z) + z phi2(z) = z phi1(conj(z)) - conj(z) phi2(conj(z))
         conj(z) phi1(z) + z phi2(z) = z phi1(-conj(z)) + conj(z) phi2(-conj(z))

    With ``conj(z) = 1/z``, ``phi1 = sum a_n z^n`` and ``phi2 = sum b_n z^n``,
    the ``z^k`` coefficients of the differences of the two sides, zero unless
    ``|k| <= s + 1`` for the larger support ``s``, are

        d1_k = b_{k-1} - a_{k+1} - a_{1-k} + b_{-1-k}
        d2_k = a_{k+1} + b_{k-1} + (-1)^k (a_{1-k} + b_{-1-k})

    Each must be within ``DEFAULT_TOL.bound`` at the largest coefficient
    magnitude, so at every scale; :class:`NonFinite` for a non-finite one.
    """
    bound = DEFAULT_TOL.bound(_magnitude(phi1, phi2))
    s = max(max_support(phi1), max_support(phi2))
    a, b = (np.array([phi.get(d, 0) for d in range(-s - 2, s + 3)], complex) for phi in (phi1, phi2))
    a_next, b_prev = a[2:], b[:-2]  # a_{k+1}, b_{k-1} for k = -(s+1) ... s+1
    a_refl, b_refl = a_next[::-1], b_prev[::-1]  # a_{1-k}, b_{-1-k}
    d1 = b_prev - a_next - a_refl + b_refl
    d2 = a_next + b_prev + (-1.0) ** np.arange(-s - 1, s + 2) * (a_refl + b_refl)
    return bool(np.all(np.abs(d1) <= bound) and np.all(np.abs(d2) <= bound))


@dataclass(frozen=True)
class BlockAntilinear:
    """2x2 block of antilinear maps acting on a doubled space.

    On a pair ``(f, g)`` the assembled map produces
    ``(d11 f + d12 g, d21 f + d22 g)``.
    """

    d11: AntilinearMap
    d12: AntilinearMap
    d21: AntilinearMap
    d22: AntilinearMap

    def __post_init__(self):
        dims = {b.dim for b in (self.d11, self.d12, self.d21, self.d22)}
        if len(dims) != 1:
            raise DimMismatch(f"blocks have mixed dimensions {sorted(dims)}")

    @classmethod
    def from_matrices(cls, b11, b12, b21, b22) -> "BlockAntilinear":
        return cls(*(AntilinearMap(b) for b in (b11, b12, b21, b22)))

    def assembled(self) -> AntilinearMap:
        B = np.block(
            [
                [self.d11.matrix, self.d12.matrix],
                [self.d21.matrix, self.d22.matrix],
            ]
        )
        return AntilinearMap(B)


def block_antiunitary_check(B: BlockAntilinear) -> tuple[bool, bool]:
    """Blockwise antiunitarity and anti-involutivity residuals.

    With ``M`` the assembled matrix, the six block identities equivalent to
    ``C C* = I = C* C`` are the 2x2 blocks of ``M M^dag - I`` and
    ``M^T conj(M) - I``; for the second flag, the six identities equivalent
    to ``C* = -C`` together with ``C^2 = -I`` are the blocks of ``M + M^T``
    and ``M conj(M) + I``. Each flag compares the largest block Frobenius
    norm with ``DEFAULT_TOL.bound(1)``. Returns ``(antiunitary,
    anti_involutive)``, ``(True, True)`` for 0x0 blocks.
    """
    M, n = B.assembled().matrix, B.d11.dim
    eye = np.eye(2 * n)

    def within(*products):
        norms = np.linalg.norm(np.stack(products).reshape(len(products), 2, n, 2, n), axis=(2, 4))
        return bool(norms.max() <= DEFAULT_TOL.bound(1.0))

    return within(M @ M.conj().T - eye, M.T @ np.conj(M) - eye), within(M + M.T, M @ np.conj(M) + eye)


def prop11_check(
    p, D2: AntiunitaryOp, alpha: float, tol: Tolerance = DEFAULT_TOL
) -> CsaReport:
    """Block model ``[[p^2, alpha p], [p, p^2]]`` against the off-diagonal
    pairing conjugation built from an involutive ``D2``.

    Requires ``D2`` involutive and the intertwining ``D2 p D2 = -p*``;
    under those hypotheses the block matrix is C-self-adjoint for every
    real ``alpha``, which the returned report verifies directly.
    """
    p = as_matrix(p, square=True)
    if classify(D2) is not InvolutionClass.INVOLUTIVE:
        raise HypothesisViolated("D2 must be involutive")
    b = D2.unitary_part
    if b.shape[0] != p.shape[0]:
        raise DimMismatch("D2 and p have different dimensions")
    sandwich = b @ np.conj(p) @ np.conj(b)
    defect = fro(sandwich + p.conj().T)
    if defect > tol.bound(max(1.0, fro(p))):
        raise HypothesisViolated(f"||D2 p D2 + p*|| = {defect:.3e} exceeds tolerance")
    p2 = p @ p
    T = np.block([[p2, alpha * p], [p, p2]])
    zero = np.zeros_like(b)
    C_block = AntiunitaryOp(np.block([[zero, b], [-b, zero]]))
    return check_c_selfadjoint(T, C_block, tol)
