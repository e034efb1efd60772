"""Antilinear eigenvalue problems and pseudospectra.

For a C-self-adjoint ``H`` and a shift ``z`` in the resolvent set,
``M = H - z I`` is again C-self-adjoint, and one SVD of M gives a complete
orthonormal family of solutions of the antilinear eigenvalue problem

    (H - z I) psi_j = lambda_j C psi_j,      lambda_j > 0 ascending,

with ``lambda_j`` the singular values of M. The ``psi_j`` are ``C^{-1}``
of the J-fixed vectors of the resolvent ``R(z) = M^{-1}``, found without
forming ``R(z)``; ``||R(z)|| = 1 / lambda_1`` drives the pseudospectrum
scan: ``z`` belongs to the epsilon-pseudospectrum iff ``z`` is in the
spectrum or ``||R(z)|| > 1 / epsilon`` (strict, per the definition).

``M`` is also ``C^{-1}``-self-adjoint, and the eigensystem is its refined
SVD against ``C^{-1}`` (the fixed-basis step and cluster slack of
``decomp.refined_svd``). It keeps the residuals it was certified with:
the expansion and the completeness of the ``psi_j``.

:func:`resolvent_norm` and the :func:`pseudospectrum` scan share one
kernel. It splits ``H`` along its exact structural zeros into a direct
sum of diagonal blocks (the spin toy model is one 2x2 momentum symbol per
block); ``sigma_min(H - z I)`` is the least ``sigma_min`` over the blocks,
and ``||H - z I||_F`` the norm of all their singular values. A dense ``H``
is a single block. One spectrum rule, shared with the eigensystem, puts
``z`` in the spectrum when ``sigma_min <= SPECTRUM_CUTOFF * ||H - z I||_F``
and raises :class:`NonFinite` when that norm overflows (or is NaN).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .antiunitary import AntiunitaryOp
from .csa import _require_csa
from .decomp import _certify, _fixed_singular_basis
from .errors import DimMismatch, NonFinite, ZInSpectrum
from .linalg import DEFAULT_TOL, Tolerance, as_matrix, connected_components, fro

#: sigma_min(H - z I) at or below this fraction of ||H - z I|| counts as
#: "z in the spectrum".
SPECTRUM_CUTOFF = 1e-12


@dataclass(frozen=True)
class AntilinearEigenSystem:
    """Solutions of ``(H - z I) psi_j = lambda_j C psi_j``.

    ``lambdas`` is positive and nondecreasing; the columns of ``psis`` are
    orthonormal and, in finite dimension, form a complete basis.
    ``residuals`` holds the certified ``expansion``
    (``||(H - z I) psi - C psi lambda||``) and ``completeness``
    (``||psi psi* - I||``) norms.
    """

    z: complex
    lambdas: np.ndarray
    psis: np.ndarray
    residuals: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class PseudospectrumGrid:
    """Resolvent-norm samples over a rectangular grid.

    ``in_pseudospectrum`` marks points with ``resolvent_norm > 1/epsilon``
    (points numerically in the spectrum carry ``resolvent_norm = inf``).
    """

    epsilon: float
    zs: np.ndarray
    resolvent_norms: np.ndarray
    in_pseudospectrum: np.ndarray

    @property
    def points(self) -> list[tuple[complex, float, bool]]:
        return [
            (complex(z), float(r), bool(m))
            for z, r, m in zip(self.zs, self.resolvent_norms, self.in_pseudospectrum)
        ]


@np.errstate(divide="ignore")
def _resolvent(smin, norm):
    """``1 / smin``, or ``inf`` (``z`` in the spectrum) where ``smin <=
    SPECTRUM_CUTOFF * norm``, per shift: ``smin = sigma_min(H - z I)`` and
    ``norm = ||H - z I||_F``, which must be finite (else :class:`NonFinite`)."""
    if not np.all(norm < np.inf):
        raise NonFinite("||H - zI||_F overflows")
    return np.where(smin <= SPECTRUM_CUTOFF * norm, np.inf, 1.0 / smin)


@np.errstate(over="ignore")  # an overflow makes ||H - z I||_F non-finite, which _resolvent rejects
def _resolvent_norms(H: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """:func:`_resolvent` at each shift in ``zs``.

    The connected components of ``H != 0`` split ``H`` into diagonal
    blocks, and blocks of one size go through one batched SVD per chunk
    of shifts (~64 MB). ``sigma_min`` is the least over all blocks and
    ``||H - z I||_F`` the ``hypot`` of all their singular values, which
    does not overflow or underflow where the norm is representable. A
    0 x 0 ``H`` is the zero map, of norm 0. No shift's value depends on
    the others.
    """
    groups: dict[int, list[np.ndarray]] = {}
    for component in connected_components(H != 0):
        groups.setdefault(len(component), []).append(component)
    smin = np.full(len(zs), np.inf)
    frobenius = np.zeros(len(zs))
    for m, members in groups.items():
        index = np.array(members)
        blocks = H[index[:, :, None], index[:, None, :]]
        eye = np.eye(m)
        chunk = max(1, 2**22 // (len(members) * m * m))  # cap batch memory at ~64 MB
        for start in range(0, len(zs), chunk):
            part = slice(start, start + chunk)
            s = np.linalg.svd(blocks[None] - zs[part, None, None, None] * eye, compute_uv=False)
            smin[part] = np.minimum(smin[part], s[..., -1].min(axis=1))
            stack_norm = np.hypot.reduce(s.reshape(len(s), -1), axis=1)
            frobenius[part] = np.hypot(frobenius[part], stack_norm)
    return _resolvent(smin, frobenius)


def resolvent_norm(H, z: complex) -> float:
    """Operator norm ``||(H - z I)^{-1}|| = 1 / sigma_min(H - z I)``.

    Returns ``inf`` when ``z`` is numerically in the spectrum; raises
    ``ValueError`` for a non-finite ``z`` and :class:`NonFinite` when
    ``||H - z I||_F`` overflows. This is the block scan of
    :func:`pseudospectrum` at the one point ``z``, so the two agree
    exactly.
    """
    H, z = as_matrix(H, square=True), complex(z)
    if not np.isfinite(z):
        raise ValueError("z must be finite")
    return float(_resolvent_norms(H, np.array([z]))[0])


def antilinear_eigensystem(
    H, C: AntiunitaryOp, z: complex, tol: Tolerance = DEFAULT_TOL
) -> AntilinearEigenSystem:
    """Solve ``(H - z I) psi = lambda C psi`` for a C-self-adjoint ``H``.

    From one SVD ``M = H - z I = W diag(s) V*``: ``lambda_j = s_j`` ascending
    and ``psi_j`` the fixed vectors of the antiunitary ``C^{-1} o U``
    (matrix ``A^T conj(W V*)``, ``U = W V*``) in M's singular subspaces:
    ``C^{-1} U psi = psi`` is ``U psi = C psi``, so
    ``M psi = U |M| psi = lambda U psi = lambda C psi``. Raises
    :class:`ZInSpectrum` when ``z`` is numerically in the spectrum,
    :class:`NonFinite` when ``||H - z I||_F`` overflows, ``ValueError``
    when ``z`` is not finite, :class:`DimMismatch` for a 0 x 0 ``H``
    (no lambda_1), and :class:`UnsupportedDegeneracy` when a cluster of
    M's singular values (gap ``SVD_CLUSTER_GAP * s[0]``, as in
    :func:`~csaop.decomp.refined_svd`) is degenerate and ``C`` is not
    involutive: for a C that is neither, two lambdas within
    ``1e-6 ||M||_2`` of each other suffice.
    """
    H = _require_csa(H, C, tol)
    z, n = complex(z), H.shape[0]
    if not np.isfinite(z):
        raise ValueError("z must be finite")
    if n == 0:
        raise DimMismatch("a 0 x 0 H has no antilinear eigenvalues")
    with np.errstate(over="ignore"):  # an overflow leaves ||M||_F non-finite: _resolvent raises
        M = H - z * np.eye(n)
        W, s, Vh = np.linalg.svd(M)
        if _resolvent(s[-1], np.hypot.reduce(s)) == np.inf:
            raise ZInSpectrum(f"sigma_min(H - zI) = {s[-1]:.3e}; shift z = {z} is in the spectrum")
    A = C.unitary_part
    phis, _, slack = _fixed_singular_basis(A.T, W, Vh.conj().T, s, C, tol)
    psis, lambdas = phis[:, ::-1], s[::-1]
    residuals = _certify(
        "antilinear expansion",
        tol.bound(max(1.0, fro(H)) + float(lambdas[-1])) + slack,
        expansion=fro(M @ psis - (A @ np.conj(psis)) * lambdas),
    )
    residuals |= _certify("basis", tol.bound(1.0), completeness=fro(psis @ psis.conj().T - np.eye(n)))
    return AntilinearEigenSystem(z=z, lambdas=lambdas, psis=psis, residuals=residuals)


def pseudospectrum(
    H,
    epsilon: float,
    bounds: tuple[float, float, float, float],
    resolution: int,
) -> PseudospectrumGrid:
    """Scan ``resolvent_norm`` over a rectangle and mark the pseudospectrum.

    ``bounds = (re_min, re_max, im_min, im_max)``; ``resolution`` points
    per axis (so ``resolution**2`` grid points, imaginary part varying
    slowest). All points go through the block kernel of
    :func:`resolvent_norm`, one batched SVD per block size of ``H``'s
    direct-sum split (a dense ``H`` is one n x n SVD per point), so each
    norm equals ``resolvent_norm(H, z)`` exactly.
    """
    if not 0 < epsilon < np.inf:
        raise ValueError("epsilon must be positive and finite")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    H = as_matrix(H, square=True)
    re_min, re_max, im_min, im_max = map(float, bounds)
    if not np.isfinite([re_min, re_max, im_min, im_max]).all():
        raise ValueError("bounds must be finite")
    res = np.linspace(re_min, re_max, resolution)
    ims = np.linspace(im_min, im_max, resolution)
    zs = (res[None, :] + 1j * ims[:, None]).ravel()

    norms = _resolvent_norms(H, zs)
    mask = norms > 1.0 / epsilon
    return PseudospectrumGrid(
        epsilon=float(epsilon), zs=zs, resolvent_norms=norms, in_pseudospectrum=mask
    )
