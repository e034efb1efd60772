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
  antiunitary works unless |alpha| = 1: involutivity makes its matrix
  symmetric, and the intertwining relation then forces it onto the line
  ``diag(-alpha, 1)``, so :func:`constant_conjugation_search` is a closed
  form with a certified witness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .antiunitary import AntiunitaryOp
from .errors import AsymmetricGrid
from .linalg import DEFAULT_TOL

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
    Raises ``ValueError`` for a grid that is not 1-d, non-finite input and
    finite momenta whose eigenvalues overflow (``|k|`` beyond about 1e154).
    """
    k_grid = np.asarray(k_grid, dtype=float)
    if k_grid.ndim != 1:
        raise ValueError(f"k_grid must be one-dimensional, got shape {k_grid.shape}")
    if not (np.isfinite(alpha) and np.isfinite(k_grid).all()):
        raise ValueError("alpha and k_grid must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.sqrt(complex(alpha)) * np.abs(k_grid)
        eigenvalues = np.column_stack([k_grid**2 + w, k_grid**2 - w])
    if not np.isfinite(eigenvalues).all():
        raise ValueError(f"symbol eigenvalues overflow for momenta up to {np.abs(k_grid).max():.3e}")
    return SpectrumSample(alpha=float(alpha), k_grid=k_grid, eigenvalues=eigenvalues)


def distance_to_closed_form(alpha: float, lam: complex) -> float:
    """Euclidean distance from ``lam`` to the closed-form spectrum.

    The spectrum is parametrized by momentum: ``k -> k^2 - sqrt(alpha) k``
    traces the real half-line ``[-alpha/4, inf)`` for ``alpha >= 0`` and
    ``k -> k^2 + i sqrt(|alpha|) k`` the parabola for ``alpha < 0``. For
    ``alpha >= 0`` the minimization over ``k`` has the exact half-line
    solution; for ``alpha < 0`` the squared distance is a quartic in ``k``,
    minimized over the real parts of the roots of its cubic derivative, with
    no Newton polish (a complex root's real part is one more candidate).
    Raises ``ValueError`` for a non-finite alpha or lam.
    """
    if not np.isfinite(alpha):
        raise ValueError("alpha must be finite")
    lam = complex(lam)
    if not np.isfinite(lam):
        raise ValueError("lam must be finite")
    a, b = lam.real, lam.imag
    if alpha >= 0:
        left = -alpha / 4.0
        if a >= left:
            return abs(b)
        return float(np.hypot(a - left, b))
    c = float(np.sqrt(-alpha))
    # d/dk[(a - k^2)^2 + (b - c k)^2]
    k = np.roots([4.0, 0.0, 2.0 * c * c - 4.0 * a, -2.0 * b * c]).real
    return float(np.min(np.abs(lam - (k * k + 1j * c * k))))


#: ``k_i`` and ``k_j`` pair under ``k -> -k`` when ``|k_i + k_j|`` is at
#: most this times ``max(1, |k_j|)``: absolute up to ``|k| = 1``, relative
#: beyond, as the rounding of ``np.linspace(-kmax, kmax, n)`` grows with kmax.
REFLECTION_MATCH = 1e-12


@np.errstate(over="ignore")  # a window end beyond the largest float is harmless
def _reflection_partners(k_grid) -> np.ndarray:
    """The momentum reflection ``k -> -k`` as indices, found by sorting in
    O(m log m): ``partner[j] = i`` where ``|k_i + k_j| <= t_j =
    REFLECTION_MATCH max(1, |k_j|)``. Raises ``ValueError`` for non-finite
    momenta and :class:`AsymmetricGrid` unless each momentum has exactly one
    match (zero may pair with itself) and the pairing is an involution."""
    k = np.asarray(k_grid, dtype=float)
    if not np.isfinite(k).all():
        raise ValueError("k_grid must be finite")
    order, t = np.argsort(k), REFLECTION_MATCH * np.maximum(1.0, np.abs(k))
    lo, hi = np.searchsorted(k[order], [-k - 2 * t, -k + 2 * t])  # 2 t: room for any rounding
    col = np.repeat(np.arange(len(k)), hi - lo)  # candidate p tests row[p] for column col[p]
    row = order[np.arange(len(col)) + np.repeat(hi - np.cumsum(hi - lo), hi - lo)]
    hit = np.abs(k[row] + k[col]) <= t[col]
    partners = np.bincount(col[hit], minlength=len(k))
    if (partners != 1).any():
        j = np.flatnonzero(partners != 1)[0]
        raise AsymmetricGrid(f"momentum {k[j]} has {partners[j]} partners under k -> -k; need exactly 1")
    partner = row[hit]  # col[hit] is now 0, 1, ..., m - 1
    if not np.array_equal(partner[partner], np.arange(len(k))):
        raise AsymmetricGrid("reflection pairing is not an involution")
    return partner


def lift_conjugation(matrix_part, k_grid) -> AntiunitaryOp:
    """Lift a constant-matrix antiunitary ``(matrix) o K`` to the grid.

    Entrywise conjugation reflects momentum, so the lifted unitary part is
    ``reflection (x) matrix``; :meth:`AntiunitaryOp.permuted_blocks` checks its factors.
    """
    return AntiunitaryOp.permuted_blocks(_reflection_partners(k_grid), matrix_part)


def discretize(alpha: float, k_grid) -> tuple[np.ndarray, AntiunitaryOp, np.ndarray]:
    """Momentum-grid realization of the model and its symmetries.

    Returns ``(H, C2, P)`` where ``H`` stacks the symbol blocks along the
    diagonal, ``C2`` is the lifted time-reversal ``(-i sigma2) o K``
    (including the momentum reflection carried by the conjugation), and
    ``P = I (x) sigma1`` is the constant parity-like matrix, so that
    ``H`` is C2-self-adjoint and commutes with the antiunitary ``P C2``.
    Raises ``ValueError``, before building anything, where
    :func:`spectrum_sample` does and where an entry ``alpha k`` overflows.
    """
    k_grid = spectrum_sample(alpha, k_grid).k_grid
    with np.errstate(over="ignore"):
        coupled = alpha * k_grid
    if not np.isfinite(coupled).all():
        raise ValueError(f"symbol entries alpha k overflow for momenta up to {np.abs(k_grid).max():.3e}")
    n = len(k_grid)
    H = np.zeros((2 * n, 2 * n), dtype=complex)
    even = 2 * np.arange(n)
    H[even, even] = H[even + 1, even + 1] = k_grid * k_grid
    H[even, even + 1] = k_grid
    H[even + 1, even] = coupled
    C2 = lift_conjugation(MINUS_I_SIGMA2, k_grid)
    P = np.zeros((2 * n, 2 * n), dtype=complex)  # I (x) sigma1 by index: a tenth of np.kron's time
    P[even, even + 1] = P[even + 1, even] = 1.0
    return H, C2, P


def constant_conjugation_residual(alpha: float, A) -> float:
    """Direct residual of a candidate constant involutive conjugation.

    Returns the largest of the intertwining, unitarity, and involutivity
    residuals of ``C = A o K`` against the model with coupling ``alpha``.
    The k^2 parts of ``h(k)* A = A conj(h(-k))`` are scalar and drop out;
    the first-order parts leave ``M1 A = A M2`` with
    ``M1 = [[0, alpha], [1, 0]]`` and ``M2 = [[0, -1], [-alpha, 0]]``. For
    square ``A``, ``||A*A - I|| = ||AA* - I||`` (see ``AntiunitaryOp``).
    """
    A = np.asarray(A, dtype=complex)
    M1 = np.array([[0.0, alpha], [1.0, 0.0]], dtype=complex)
    M2 = np.array([[0.0, -1.0], [-alpha, 0.0]], dtype=complex)
    eye = np.eye(2)
    return float(
        max(
            np.linalg.norm(M1 @ A - A @ M2),
            np.linalg.norm(A.conj().T @ A - eye),
            np.linalg.norm(A @ np.conj(A) - eye),
        )
    )


def constant_conjugation_search(alpha: float) -> tuple[bool, np.ndarray | None]:
    """Find a constant 2x2 involutive antiunitary intertwining the model.

    In closed form: an involutive antiunitary ``C = A o K`` has
    ``A conj(A) = I = A A*``, so ``A = A^T = [[a, b], [b, d]]``. Matching
    momentum powers in ``h(k)* A = A conj(h(-k))`` leaves the linear
    constraint ``M1 A = A M2``, which reads ``alpha b = 0``, ``b = 0`` and
    ``a = -alpha d``: ``A = d diag(-alpha, 1)``. That is unitary exactly
    when ``|d| = 1`` and ``|alpha| = 1``, so the search is the check
    ``|alpha| = 1``, made by certifying the phase-normalized witness
    ``diag(1, -sign alpha)`` (``sigma3`` at ``alpha = 1``, the identity at
    ``alpha = -1``) with :func:`constant_conjugation_residual` against
    ``DEFAULT_TOL.bound(1)``. That residual is ``sqrt(2) ||alpha| - 1|``, or
    at least 1 when alpha is 0. Raises ``ValueError`` for a non-finite alpha.
    """
    if not np.isfinite(alpha):
        raise ValueError("alpha must be finite")
    A = np.diag([1.0, -np.sign(alpha)]).astype(complex)
    if constant_conjugation_residual(alpha, A) > DEFAULT_TOL.bound(1.0):
        return False, None
    return True, A
