"""Complex-self-adjointness: verification, generation, and spectral pairing.

A square matrix ``H`` is *C-self-adjoint* with respect to an antiunitary
``C`` when ``C H C^{-1} = H*``; it is *C-real* when ``C H C^{-1} = H``
(equivalently ``[C, H] = 0``). On a finite-dimensional space the notions
"C-symmetric" and "C-self-adjoint" coincide, because an inclusion between
everywhere-defined maps is an equality; the checks below report both under
one roof.

For ``C = A o K`` the constraint ``A conj(H) = H* A`` conjugates to the
complex-linear fixed-point equation ``T(H) = H``, ``T(H) = A^T H^T conj(A)``.
``T`` is Frobenius-unitary with ``T^2(H) = W H W^{-1}``, ``W = A^T A*`` the
matrix of ``C^{-2}``, so ``T`` is a self-adjoint involution on the commutant
of ``W`` (Wigner's normal form of antiunitaries). :func:`generate_csa`
projects onto that commutant, then averages with ``T``. The projection
works in the eigenbasis of ``W``, :attr:`AntiunitaryOp.square_split`: the
first call on an operator computes it in O(n^3) (a Cayley transform and an
``eigh``), and later calls on the same operator only take its products.

Every decomposition of a C-self-adjoint ``H`` first checks ``C H C^{-1} =
H*`` and then factorises: :func:`_checked` is the one front end for that.
It serves :func:`eigen_pairing` (``eig``) and :func:`_csa_svd`, the one
SVD of :func:`~csaop.decomp.refined_polar`,
:func:`~csaop.decomp.refined_svd`,
:func:`~csaop.antieig.antilinear_eigensystem` and :func:`kernel_pairing`.
It schedules the check and the factorization as two independent steps,
the factorization last, and the decompositions then schedule the
products that certify their results the same way; whether steps run on
threads is :mod:`csaop.linalg`'s to decide (``linalg._overlap``). The
errors and values are those of the serial order.

The checks compare dimensions first, then take ``||A conj(H) A* - T||_F``
a row block at a time (``linalg._blocked_fro``): a check makes two
blocks of ``linalg.RESIDUAL_BLOCK_ROWS`` rows and no ``n x n`` array, so
it leaves little in the arena of the pool thread that runs it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .antiunitary import AntiunitaryOp
from .errors import DimMismatch, NonFinite, NotCsa
from .linalg import (
    DEFAULT_TOL, Tolerance, _blocked_fro, _overlap, _shifted, as_matrix, column_norms, fro, rank_cutoff,
)


@dataclass(frozen=True)
class CsaReport:
    """Outcome of a C-self-adjointness (or C-reality) residual check."""

    residual: float
    is_csa: bool

    def to_json(self) -> dict:
        return {"residual": self.residual, "is_csa": self.is_csa}


def _check(H, C: AntiunitaryOp, adjoint: bool, tol: Tolerance) -> CsaReport:
    """The report on ``A conj(H) A* = T``, ``T = H*`` if ``adjoint`` else
    ``H``, taken in the row blocks of :func:`~csaop.linalg._blocked_fro`.

    A block's rows of ``A conj(H) A*`` come conjugated, as ``conj(A[rows])
    @ H @ A^T`` (``conj(x) conj(y) = conj(xy)``), and are compared with
    ``conj(T)[rows]``, the rows of ``H^T`` for ``T = H*``: the moduli, so
    the norm, are those of the plain difference, and nothing of ``n x n``
    is made.
    """
    n, A = H.shape[0], C.unitary_part
    if n != C.dim:
        raise DimMismatch(f"matrix dim {n} vs operator dim {C.dim}")
    scale = fro(H)  # once finite, it bounds every entry and partial sum of A conj(H) A*
    if scale == np.inf:
        raise NonFinite("||H||_F overflows")

    def difference(rows, left, right):
        np.matmul(np.conjugate(A[rows], out=left), H, out=right)
        np.matmul(right, A.T, out=left)
        if adjoint:
            return np.subtract(left, H[:, rows].T, out=left)
        return np.subtract(left, np.conjugate(H[rows], out=right), out=left)

    with np.errstate(over="ignore"):  # a difference past the float range: residual inf
        residual = _blocked_fro(n, difference)
    return CsaReport(residual=residual, is_csa=residual <= tol.bound(scale))


def check_c_selfadjoint(H, C: AntiunitaryOp, tol: Tolerance = DEFAULT_TOL) -> CsaReport:
    """Residual check of ``C H C^{-1} = H*`` (Frobenius norm), taken in
    row blocks with no ``n x n`` array made. Raises :class:`DimMismatch`
    for a ``C`` of another dimension, then :class:`NonFinite` when
    ``||H||_F`` overflows."""
    H = as_matrix(H, square=True)
    return _check(H, C, True, tol)


def check_c_real(H, C: AntiunitaryOp, tol: Tolerance = DEFAULT_TOL) -> CsaReport:
    """Residual check of ``C H C^{-1} = H``, i.e. the commutation [C, H] = 0,
    taken and raising as :func:`check_c_selfadjoint`."""
    H = as_matrix(H, square=True)
    return _check(H, C, False, tol)


def _require_csa(H: np.ndarray, C, tol) -> None:
    """Raises :class:`NotCsa` unless the matrix ``H`` passes
    :func:`check_c_selfadjoint`, which it reaches through this module's
    globals (so a tracer or a test that replaces it there sees every call)."""
    report = check_c_selfadjoint(H, C, tol)
    if not report.is_csa:
        raise NotCsa(f"C-self-adjointness residual {report.residual:.3e} exceeds tolerance")


def _checked(H, C, tol, factor):
    """``(H, factor(H))`` for the matrix ``H``, once it is C-self-adjoint.

    The one checked-factorization front end of the module docstring.
    Errors come in a fixed order: those of :func:`~csaop.linalg.as_matrix`,
    then the check's (:class:`DimMismatch` for a ``C`` of another
    dimension, :class:`NonFinite` when ``||H||_F`` overflows,
    :class:`NotCsa`), and ``factor``'s own only after the check has passed.
    The check and ``factor`` are the two steps of one
    :func:`~csaop.linalg._overlap` round, ``factor`` last, so it runs on
    the calling thread and makes the arrays returned there. Every value is
    bit for bit the serial order's; where the two steps run side by side,
    an ``H`` that fails the check costs the longer of the two.
    """
    H = as_matrix(H, square=True)
    _, factors = _overlap(H.shape[0], [lambda: _require_csa(H, C, tol), lambda: factor(H)])
    return H, factors


def _csa_svd(H, C, tol, z: complex = 0.0, bad_shift: tuple[type[Exception], str] | None = None):
    """The one checked full SVD ``M = H - z I = W diag(s) V*`` of a C-self-adjoint ``H``.

    Takes its check and its error order from :func:`_checked`. The shift
    comes after the check: a non-finite ``z`` raises ``bad_shift = (error
    type, message)``, the message formatted with ``z``. Raises
    :class:`NonFinite` when an entry of ``M`` overflows (before the SVD,
    so LAPACK never sees it) or when ``||M||_F``, the ``hypot`` of ``s``,
    does. Returns ``(H, M, W, s, V, rank)``, with ``rank`` the count of
    ``s`` above :func:`~csaop.linalg.rank_cutoff`; ``M`` is ``H`` itself
    for ``z = 0``. The SVD is :func:`_checked`'s ``factor``.
    """

    def factor(H):
        shift = complex(z)
        if not np.isfinite(shift):
            error, message = bad_shift
            raise error(message.format(shift))
        with np.errstate(over="ignore"):  # an overflowing entry or norm raises NonFinite below
            M = _shifted(H[None], np.array([shift]))[0, 0] if shift else H
            W, s, Vh = np.linalg.svd(M)
            if not np.hypot.reduce(s) < np.inf:
                raise NonFinite("||H - zI||_F overflows")
        rank = int(np.count_nonzero(s > rank_cutoff(s, tol)))
        return M, W, s, Vh.conj().T, rank

    H, factors = _checked(H, C, tol, factor)
    return (H, *factors)


def generate_csa(C: AntiunitaryOp, seed: int) -> np.ndarray:
    """Pseudo-random C-self-adjoint matrix, deterministic in ``seed``.

    The orthogonal projection of a complex Gaussian matrix onto the solution
    space (module docstring): unit variance along every real direction in it.
    For a C that is neither involutive nor anti-involutive, the first call
    on ``C`` computes :attr:`~AntiunitaryOp.commutant_projection` in O(n^3);
    every call then projects with its basis ``Q`` by four matrix products.
    """
    A = C.unitary_part
    n = C.dim
    G = np.empty((n, n), dtype=complex)
    G.real, G.imag = np.random.default_rng(seed).standard_normal((2, n, n))
    if C.commutant_projection is not None:  # onto the commutant of C^{-2}
        Q, Qh, apart = C.commutant_projection
        X = Qh @ G @ Q
        X[apart] = 0
        G = Q @ X @ Qh
    G += A.T @ G.T @ A.conj()  # the average of G and T(G)
    return np.multiply(G, 0.5, out=G)


def eigen_pairing(H, C: AntiunitaryOp) -> list[tuple[complex, np.ndarray, float]]:
    """Eigenvector pairing ``H psi = lambda psi  =>  H* (C psi) = conj(lambda) (C psi)``.

    For each eigenpair of ``H`` reports the residual
    ``||(H* - conj(lambda) I) C psi||``; all residuals are small exactly
    when ``H`` is C-self-adjoint (this is the finite-dimensional reason the
    residual spectrum is empty). Raises :class:`NotCsa` when ``H`` fails
    :func:`check_c_selfadjoint` at ``DEFAULT_TOL``.
    """
    H, (values, vectors) = _checked(H, C, DEFAULT_TOL, np.linalg.eig)
    mapped = C.unitary_part @ np.conj(vectors)
    residuals = column_norms(H.conj().T @ mapped - np.conj(values) * mapped)
    return [(complex(lam), psi, float(r)) for lam, psi, r in zip(values, vectors.T, residuals)]


def kernel_pairing(H, C: AntiunitaryOp, lam: complex) -> tuple[int, int, bool]:
    """Kernel dimensions of ``H - lam I`` and ``H* - conj(lam) I`` plus the
    mapping property of ``C`` between them.

    For a C-self-adjoint ``H`` the two nullities agree and ``C`` maps the
    first kernel onto the second; ``mapped_ok`` reports whether every
    kernel basis vector ``f`` satisfies
    ``||(H* - conj(lam) I) C f|| <= DEFAULT_TOL.bound(||H||_F)``. One SVD
    of ``H - lam I`` gives both kernels (trailing right and left singular
    vectors), its rank cut at ``rank_cutoff`` with ``DEFAULT_TOL``. Raises
    :class:`NonFinite` for a non-finite ``lam`` and when ``||H - lam I||_F``
    overflows.
    """
    H, shifted, W, _, V, rank = _csa_svd(H, C, DEFAULT_TOL, lam, (NonFinite, "shift lam = {} is not finite"))
    ker, ker_adj = V[:, rank:], W[:, rank:]
    mapped = shifted.conj().T @ (C.unitary_part @ np.conj(ker))
    mapped_ok = bool(np.all(column_norms(mapped) <= DEFAULT_TOL.bound(fro(H))))
    return ker.shape[1], ker_adj.shape[1], mapped_ok
