"""Antilinear eigenvalue problems via the resolvent, and pseudospectra.

For a C-self-adjoint ``H`` and a shift ``z`` in the resolvent set, the
resolvent ``R(z) = (H - z I)^{-1}`` is again C-self-adjoint, and its
refined singular-value expansion turns into a complete orthonormal family
of solutions of the antilinear eigenvalue problem

    (H - z I) psi_j = lambda_j C psi_j,      lambda_j > 0 ascending,

with ``lambda_j = 1 / sigma_j(R(z))`` and ``psi_j = C^{-1} phi_j``. In
particular ``||R(z)|| = 1 / lambda_1``, which drives the pseudospectrum
scan: ``z`` belongs to the epsilon-pseudospectrum iff ``z`` is in the
spectrum or ``||R(z)|| > 1 / epsilon`` (strict, per the definition).

The eigensystem keeps the residuals it was certified with: the expansion
and the completeness of the ``psi_j``. Vectors inside one singular-value
cluster of ``R(z)`` may mix; the clusters are the ones the refined SVD
kernel formed, and their lambda steps widen the expansion bound.

The scan splits ``H`` along its exact structural zeros into a direct sum
of diagonal blocks (the spin toy model is one 2x2 momentum symbol per
block), and ``sigma_min(H - z I)`` is the least ``sigma_min`` over the
blocks. A dense ``H`` is a single block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .antiunitary import AntiunitaryOp
from .csa import _require_csa
from .decomp import _certify, _expansion
from .errors import ZInSpectrum
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


def _shifted(H: np.ndarray, z: complex) -> np.ndarray:
    return H - z * np.eye(H.shape[0])


def resolvent_norm(H, z: complex) -> float:
    """Operator norm ``||(H - z I)^{-1}|| = 1 / sigma_min(H - z I)``.

    Returns ``inf`` when ``z`` is numerically in the spectrum.
    """
    M = _shifted(as_matrix(H, square=True), z)
    s = np.linalg.svd(M, compute_uv=False)
    smin = float(s[-1]) if len(s) else 0.0
    if smin <= SPECTRUM_CUTOFF * fro(M):
        return float("inf")
    return 1.0 / smin


def antilinear_eigensystem(
    H, C: AntiunitaryOp, z: complex, tol: Tolerance = DEFAULT_TOL
) -> AntilinearEigenSystem:
    """Solve ``(H - z I) psi = lambda C psi`` for a C-self-adjoint ``H``.

    One SVD ``H - z I = W diag(s) V*`` serves twice: it inverts the
    resolvent ``R = V diag(1/s) W*`` (robust near the spectrum), and read in
    reverse it is the SVD of ``R``, which the refined SVD kernel expands
    with all n singular values kept; the expansion is then transported
    back. ``R`` is not checked again: ``C R C^{-1} = (H* - conj(z) I)^{-1}
    = R*`` once ``H`` passes its own check. Raises :class:`ZInSpectrum`
    when ``z`` is numerically in the spectrum, and propagates
    :class:`UnsupportedDegeneracy` from the refined SVD when the resolvent
    has degenerate singular values and ``C`` is not involutive.
    """
    H = _require_csa(H, C, tol)
    z = complex(z)
    M = _shifted(H, z)
    W, s, Vh = np.linalg.svd(M)
    if s[-1] <= SPECTRUM_CUTOFF * fro(M):
        raise ZInSpectrum(f"sigma_min(H - zI) = {s[-1]:.3e}; shift z = {z} is in the spectrum")
    V = Vh.conj().T
    resolvent = (V / s) @ W.conj().T

    n = H.shape[0]
    expansion, groups = _expansion(resolvent, V[:, ::-1], 1.0 / s[::-1], W[:, ::-1], n, C, tol)
    # sigma(R) descending makes lambda = 1/sigma ascending, pairs preserved
    lambdas = 1.0 / expansion.sigmas
    psis = expansion.etas

    # vectors inside a singular-value cluster of R may mix, which shifts
    # the matching lambda by at most the cluster's lambda spread
    slack = max((np.diff(lambdas[g]).max() for g in groups if len(g) > 1), default=0.0)
    residuals = _certify(
        "antilinear expansion",
        tol.bound(max(1.0, fro(H)) + float(lambdas[-1])) + 2.0 * slack * np.sqrt(n),
        expansion=fro(M @ psis - (C.unitary_part @ np.conj(psis)) * lambdas),
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
    slowest). The connected components of ``H != 0`` split ``H`` into
    diagonal blocks; blocks of one size go through one batched SVD over
    chunks of grid points (~64 MB each), and each point takes the least
    ``sigma_min`` over all blocks, with ``||H - z I||_F`` summed from the
    blocks for the spectrum cutoff (taken again with :func:`fro` at a point
    where the sum overflows). A dense ``H`` is one block, evaluated
    as one n x n SVD per point. The result does not depend on the
    evaluation order.
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

    groups: dict[int, list[np.ndarray]] = {}
    for component in connected_components(H != 0):
        groups.setdefault(len(component), []).append(component)
    smin = np.full(len(zs), np.inf)
    sumsq = np.zeros(len(zs))
    for m, members in groups.items():
        index = np.array(members)
        blocks = H[index[:, :, None], index[:, None, :]]
        eye = np.eye(m)
        chunk = max(1, 2**22 // (len(members) * m * m))  # cap batch memory at ~64 MB
        for start in range(0, len(zs), chunk):
            part = slice(start, start + chunk)
            shifted = blocks[None] - zs[part, None, None, None] * eye
            s = np.linalg.svd(shifted, compute_uv=False)
            smin[part] = np.minimum(smin[part], s[..., -1].min(axis=1))
            with np.errstate(over="ignore", invalid="ignore"):
                sumsq[part] += (shifted.conj() * shifted).real.sum(axis=(1, 2, 3))
    frobenius = np.sqrt(sumsq)
    for i in np.flatnonzero(sumsq == np.inf):  # the squares overflowed: rescale, as fro does
        frobenius[i] = fro(_shifted(H, zs[i]))
    with np.errstate(divide="ignore"):
        norms = np.where(smin <= SPECTRUM_CUTOFF * frobenius, np.inf, 1.0 / smin)
    mask = norms > 1.0 / epsilon
    return PseudospectrumGrid(
        epsilon=float(epsilon), zs=zs, resolvent_norms=norms, in_pseudospectrum=mask
    )
