"""Spinorial toy model: a momentum-space family of 2x2 matrix symbols.

The model couples two free one-dimensional particles through an
off-diagonal first-order term with asymmetric strength ``alpha``. Passing
to Fourier variables turns it into multiplication by the matrix symbol

    h(k) = [[k^2, k], [alpha k, k^2]],

so its spectrum is exactly the closure of the union of the 2x2 symbol
spectra - no finite-difference discretization error enters anywhere. The
symbol family is self-adjoint only at ``alpha = 1``, yet its spectrum is
real for every ``alpha >= 0`` (the half-line ``[-alpha/4, inf)``); for
``alpha < 0`` it is the parabola arc ``Re(l) >= 0``,
``|Im(l)|^2 = |alpha| Re(l)``.

The relevant antiunitary symmetries, lifted to a symmetric momentum grid
(conjugation reflects momentum, constant matrices do not):

* ``C2 = (-i sigma2) o K``: the model is C2-self-adjoint for every alpha;
* ``P C2`` with ``P = sigma1``: a commuting symmetry ([H, P C2] = 0)
  explaining the real spectrum at alpha >= 0;
* ``K`` and ``sigma3 o K`` work only at alpha = -1 and alpha = +1, and
  ``sigma1 o K`` never does. In fact no constant-matrix involutive
  antiunitary works unless |alpha| = 1, which
  :func:`constant_conjugation_search` decides constructively.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .antiunitary import AntiunitaryOp
from .errors import AsymmetricGrid, NumericalFailure
from .linalg import DEFAULT_TOL, Tolerance, nullspace

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
MINUS_I_SIGMA2 = -1j * SIGMA2  # [[0, -1], [1, 0]]


@dataclass(frozen=True)
class SpectrumSample:
    """Symbol eigenvalues over a momentum grid.

    ``eigenvalues[j] = (plus, minus)`` are the two roots
    ``k^2 +- sqrt(alpha) |k|`` (the square root taken in C, so for
    ``alpha < 0`` they read ``k^2 +- i sqrt(|alpha|) |k|``).
    """

    alpha: float
    k_grid: np.ndarray
    eigenvalues: np.ndarray  # shape (len(k_grid), 2)


def symbol(alpha: float, k: float) -> np.ndarray:
    """The 2x2 matrix symbol ``[[k^2, k], [alpha k, k^2]]``."""
    return np.array([[k * k, k], [alpha * k, k * k]], dtype=complex)


def spectrum_sample(alpha: float, k_grid) -> SpectrumSample:
    """Exact symbol eigenvalues for each grid momentum.

    The union over a dense grid approximates the full spectrum; the roots
    come from the characteristic polynomial ``(k^2 - l)^2 = alpha k^2``.
    """
    k_grid = np.asarray(k_grid, dtype=float)
    if not (np.isfinite(alpha) and np.isfinite(k_grid).all()):
        raise ValueError("alpha and k_grid must be finite")
    w = np.sqrt(complex(alpha)) * np.abs(k_grid)
    plus = k_grid**2 + w
    minus = k_grid**2 - w
    return SpectrumSample(
        alpha=float(alpha), k_grid=k_grid, eigenvalues=np.column_stack([plus, minus])
    )


def distance_to_closed_form(alpha: float, lam: complex) -> float:
    """Euclidean distance from ``lam`` to the closed-form spectrum.

    The spectrum is parametrized by momentum: ``k -> k^2 - sqrt(alpha) k``
    traces the real half-line ``[-alpha/4, inf)`` for ``alpha >= 0`` and
    ``k -> k^2 + i sqrt(|alpha|) k`` the parabola for ``alpha < 0``. For
    ``alpha >= 0`` the minimization over ``k`` has the exact half-line
    solution; for ``alpha < 0`` the squared distance is a quartic in ``k``
    minimized over the real roots of its derivative, with a Newton polish
    (the curvature ``8 k^2 + 2 |alpha|`` never degenerates on the curve).
    """
    lam = complex(lam)
    a, b = lam.real, lam.imag
    if alpha >= 0:
        left = -alpha / 4.0
        if a >= left:
            return abs(b)
        return float(np.hypot(a - left, b))

    c = float(np.sqrt(-alpha))

    def point(k):
        return k * k + 1j * c * k

    # d/dk[(a - k^2)^2 + (b - c k)^2]
    poly = np.array([4.0, 0.0, 2.0 * c * c - 4.0 * a, -2.0 * b * c])
    deriv = np.polyder(poly)
    candidates = [r.real for r in np.roots(poly) if abs(r.imag) <= 1e-8 * (1 + abs(r))]
    dist = abs(lam - point(0.0))  # a real cubic always has a real root, but be safe
    for k in candidates:
        for _ in range(3):
            curvature = float(np.polyval(deriv, k))
            if curvature <= 0:
                break
            k = k - float(np.polyval(poly, k)) / curvature
        dist = min(dist, abs(lam - point(k)))
    return float(dist)


def reflection_permutation(k_grid) -> np.ndarray:
    """Permutation matrix pairing each grid momentum with its negative.

    The matrix is the boolean match ``|k_i + k_j| <= 1e-12 max(1, |k_j|)``
    itself. Raises :class:`AsymmetricGrid` unless every column has exactly
    one match (zero may pair with itself) and the matrix is symmetric; with
    one entry per column, symmetric is the same as squaring to the identity.
    """
    k_grid = np.asarray(k_grid, dtype=float)
    match = np.abs(k_grid[:, None] + k_grid) <= 1e-12 * np.maximum(1.0, np.abs(k_grid))
    partners = match.sum(axis=0)
    unpaired = np.flatnonzero(partners != 1)
    if len(unpaired):
        j = unpaired[0]
        raise AsymmetricGrid(
            f"momentum {k_grid[j]} has {partners[j]} partners under k -> -k; need exactly 1"
        )
    if not np.array_equal(match, match.T):
        raise AsymmetricGrid("reflection pairing is not an involution")
    return match.astype(float)


def lift_conjugation(matrix_part, k_grid) -> AntiunitaryOp:
    """Lift a constant-matrix antiunitary ``(matrix) o K`` to the grid.

    Entrywise conjugation reflects momentum, so the lifted unitary part is
    ``reflection (x) matrix``.
    """
    R = reflection_permutation(k_grid)
    return AntiunitaryOp(np.kron(R, np.asarray(matrix_part, dtype=complex)))


def discretize(alpha: float, k_grid) -> tuple[np.ndarray, AntiunitaryOp, np.ndarray]:
    """Momentum-grid realization of the model and its symmetries.

    Returns ``(H, C2, P)`` where ``H`` stacks the symbol blocks along the
    diagonal, ``C2`` is the lifted time-reversal ``(-i sigma2) o K``
    (including the momentum reflection carried by the conjugation), and
    ``P = I (x) sigma1`` is the constant parity-like matrix, so that
    ``H`` is C2-self-adjoint and commutes with the antiunitary ``P C2``.
    """
    k_grid = np.asarray(k_grid, dtype=float)
    n = len(k_grid)
    H = np.zeros((2 * n, 2 * n), dtype=complex)
    even = 2 * np.arange(n)
    H[even, even] = H[even + 1, even + 1] = k_grid * k_grid
    H[even, even + 1] = k_grid
    H[even + 1, even] = alpha * k_grid
    C2 = lift_conjugation(MINUS_I_SIGMA2, k_grid)
    P = np.kron(np.eye(n), SIGMA1)
    return H, C2, P


def _intertwining_coefficients(alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """First-order momentum coefficients of h(k)* A = A conj(h(-k)).

    The k^2 parts are scalar and drop out; what remains is the linear
    constraint ``M1 @ A = A @ M2`` with the matrices returned here.
    """
    M1 = np.array([[0.0, alpha], [1.0, 0.0]], dtype=complex)
    M2 = np.array([[0.0, -1.0], [-alpha, 0.0]], dtype=complex)
    return M1, M2


def constant_conjugation_residual(alpha: float, A) -> float:
    """Direct residual of a candidate constant involutive conjugation.

    Returns the largest of the intertwining, unitarity, and involutivity
    residuals of ``C = A o K`` against the model with coupling ``alpha``.
    """
    A = np.asarray(A, dtype=complex)
    M1, M2 = _intertwining_coefficients(alpha)
    eye = np.eye(2)
    return float(
        max(
            np.linalg.norm(M1 @ A - A @ M2),
            np.linalg.norm(A.conj().T @ A - eye),
            np.linalg.norm(A @ A.conj().T - eye),
            np.linalg.norm(A @ np.conj(A) - eye),
        )
    )


def constant_conjugation_search(
    alpha: float, tol: Tolerance = DEFAULT_TOL
) -> tuple[bool, np.ndarray | None]:
    """Find a constant 2x2 involutive antiunitary intertwining the model.

    Matches momentum powers in ``h(k)* A = A conj(h(-k))`` (a complex
    linear system) intersected with the symmetry ``A = A.T`` forced by
    unitarity plus involutivity, then asks whether the resulting line of
    matrices contains a unitary. Solvable exactly when ``|alpha| = 1``;
    the returned witness is phase-normalized (first significant entry
    positive real), giving ``sigma3`` at ``alpha = 1`` and the identity at
    ``alpha = -1``.
    """
    M1, M2 = _intertwining_coefficients(alpha)
    columns = []
    for p in range(2):
        for q in range(2):
            E = np.zeros((2, 2), dtype=complex)
            E[p, q] = 1.0
            columns.append(
                np.concatenate([(M1 @ E - E @ M2).ravel(), (E - E.T).ravel()])
            )
    system = np.array(columns).T
    basis = nullspace(system)
    if basis.shape[1] == 0:
        return False, None
    if basis.shape[1] > 1:
        raise NumericalFailure(
            f"intertwining solution space has dimension {basis.shape[1]}, expected <= 1"
        )
    B = basis[:, 0].reshape(2, 2)
    s = np.linalg.svd(B, compute_uv=False)
    # the line C*B contains a unitary iff B is a multiple of a unitary
    if s[0] <= tol.abs or (s[0] - s[1]) > tol.bound(1.0) * s[0]:
        return False, None
    A = B / s.mean()
    flat = A.ravel()
    lead = flat[np.argmax(np.abs(flat) > 0.5 * np.abs(flat).max())]
    A = A * (np.abs(lead) / lead)
    if constant_conjugation_residual(alpha, A) > tol.bound(1.0):
        return False, None
    return True, A
