"""Refined polar and singular-value decompositions.

For a C-self-adjoint matrix ``H`` the classical polar decomposition
``H = U |H|`` refines to ``H = C^{-1} J |H|`` where ``J = C o U`` is a
partially antiunitary map with initial and final set ``range(|H|)`` that
commutes with ``|H|``. ``J`` inherits the involution class of ``C`` on
``range(|H|)``, which makes a further refinement possible: eigenvectors of
``|H|`` can be re-phased (simple eigenvalues) or re-combined (involutive
``J``) into a *J-fixed* orthonormal family ``phi_j``, giving the rank-one
expansion

    H  = sum_j sigma_j (C^{-1} phi_j) <phi_j, .>
    H* = sum_j sigma_j phi_j <C^{-1} phi_j, .>

When a nonzero singular value is degenerate and ``C`` is not involutive,
no such basis is guaranteed; for anti-involutive ``C`` it cannot exist at
all (``J phi = phi`` with ``J^2 = -I`` forces ``phi = -phi``), and every
nonzero singular value is even-fold degenerate instead.

:func:`refined_svd` takes one SVD of ``H`` and clusters its sorted
singular values in O(n). Only when a cluster is degenerate is the
involution class of ``C`` read, and a ``C`` that is not involutive is
rejected before ``J`` is built. Eigenvectors of simple singular values are
re-phased together in one :func:`phase_fix` call; degenerate clusters get
a closed-form fixed basis from :func:`fix_basis_involutive`;
``eta_j = C^{-1} phi_j`` is one matrix product.
:func:`csaop.antieig.antilinear_eigensystem` feeds the same kernel with the
reversed SVD of ``H - z I``, which is the SVD of its inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .antiunitary import (
    AntilinearMap,
    AntiunitaryOp,
    InvolutionClass,
    classify,
    compose_antilinear,
)
from .csa import _require_csa
from .errors import (
    DimMismatch,
    NotInvariant,
    NotInvolutive,
    NotUnitary,
    NumericalFailure,
    UnsupportedDegeneracy,
)
from .linalg import (
    DEFAULT_TOL, Tolerance, as_matrix, as_vector, cayley, cluster_indices, fro, rank_cutoff
)

#: Relative singular-value gap below which values count as one cluster.
SVD_CLUSTER_GAP = 1e-6


@dataclass(frozen=True)
class RefinedPolar:
    """Triple ``(|H|, U, J)`` with ``H = U |H| = C^{-1} J |H|``.

    ``U`` is the partial isometry of the classical polar decomposition
    (zero on ``ker H``) and ``J = C o U`` is antilinear, partially
    antiunitary with initial and final set ``range(|H|)``, and commutes
    with ``|H|``.
    """

    absH: np.ndarray
    U: np.ndarray
    J: AntilinearMap


@dataclass(frozen=True)
class RefinedSVD:
    """Nonzero singular values with a J-fixed eigenbasis of ``|H|``.

    ``phis[:, j]`` is a unit eigenvector of ``|H|`` for ``sigmas[j]`` with
    ``J phi_j = phi_j``; ``etas[:, j] = C^{-1} phi_j`` is the matching
    eigenvector of ``|H*|``.
    """

    sigmas: np.ndarray
    phis: np.ndarray
    etas: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """``sum_j sigma_j eta_j phi_j*``, which reproduces ``H``."""
        return (self.etas * self.sigmas) @ self.phis.conj().T

    def reconstruct_adjoint(self) -> np.ndarray:
        """``sum_j sigma_j phi_j eta_j*``, which reproduces ``H*``."""
        return (self.phis * self.sigmas) @ self.etas.conj().T


def _svd_data(H, C: AntiunitaryOp, tol: Tolerance):
    """Csa check and SVD ``H = W diag(s) V*``; ``rank`` counts the values kept."""
    H = _require_csa(H, C, tol)
    W, s, Vh = np.linalg.svd(H)
    rank = int(np.count_nonzero(s > rank_cutoff(s, tol)))
    return H, W, s, Vh.conj().T, rank


def _polar_factors(C: AntiunitaryOp, W, s, V, rank: int):
    """Partial isometry U, ``|H|`` and ``J = C o U`` from the SVD factors of H."""
    U = W[:, :rank] @ V[:, :rank].conj().T
    absH = (V * s) @ V.conj().T
    return U, absH, compose_antilinear(C, U)


def refined_polar(H, C: AntiunitaryOp, tol: Tolerance = DEFAULT_TOL) -> RefinedPolar:
    """Refined polar decomposition ``H = C^{-1} J |H|`` of a C-self-adjoint H.

    Raises :class:`NotCsa` when ``H`` fails the C-self-adjointness check
    and :class:`NumericalFailure` when the computed factors do not satisfy
    the decomposition identities within tolerance.
    """
    H, W, s, V, rank = _svd_data(H, C, tol)
    U, absH, J = _polar_factors(C, W, s, V, rank)
    bound = tol.bound(max(1.0, fro(H)))
    polar_res = fro(H - U @ absH)
    # J |H| = |H| J as antilinear maps: B conj(|H|) = |H| B
    commute_res = fro(J.matrix @ np.conj(absH) - absH @ J.matrix)
    if polar_res > bound or commute_res > bound:
        raise NumericalFailure(
            f"polar residual {polar_res:.3e} / commutation residual {commute_res:.3e} "
            f"exceed bound {bound:.3e}"
        )
    return RefinedPolar(absH=absH, U=U, J=J)


def phase_fix(J: AntilinearMap, psi, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Re-phase unit vectors spanning J-invariant lines so J fixes them.

    ``psi`` is one vector or an ``n x k`` matrix of such vectors as columns;
    the result has the same shape. If ``J psi = exp(i a) psi`` then
    ``phi = exp(i a / 2) psi`` satisfies ``J phi = phi``. Raises
    :class:`NotInvariant` when some ``|<psi, J psi>|`` is not 1 within
    tolerance (the line is not J-invariant, or ``psi`` meets the kernel of
    a partial ``J``).
    """
    single = np.ndim(psi) != 2
    cols = as_vector(psi)[:, None] if single else as_matrix(psi)
    if cols.shape[0] != J.dim:
        raise DimMismatch(f"vector of dim {cols.shape[0]} vs operator dim {J.dim}")
    phases = np.sum(np.conj(cols) * (J.matrix @ np.conj(cols)), axis=0)
    defect = np.abs(np.abs(phases) - 1.0)
    if np.any(defect > tol.bound(1.0)):
        worst = abs(phases[np.argmax(defect)])
        raise NotInvariant(f"|<psi, J psi>| = {worst:.6f}, expected 1")
    fixed = cols * np.exp(0.5j * np.angle(phases))
    return fixed[:, 0] if single else fixed


def _restriction(J: AntilinearMap, E: np.ndarray, tol: Tolerance) -> np.ndarray:
    """``a = E* J conj(E)``, so J acts on span(E) as ``x -> a conj(x)`` in
    E-coordinates; checks that E is orthonormal and span(E) J-invariant."""
    m = E.shape[1]
    gram_dev = fro(E.conj().T @ E - np.eye(m))
    if gram_dev > 1e-8:
        raise ValueError(f"basis columns not orthonormal (deviation {gram_dev:.3e})")
    image = J.matrix @ np.conj(E)
    a = E.conj().T @ image
    invariance = fro(image - E @ a)
    if invariance > tol.bound(1.0):
        raise NotInvariant(f"J maps span(E) out of itself by {invariance:.3e}")
    return a


def fix_basis_involutive(J: AntilinearMap, E, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """J-fixed orthonormal basis of a J-invariant subspace, J an antiunitary
    involution there.

    ``E`` holds m orthonormal columns spanning the subspace, on which J acts
    as ``x -> a conj(x)`` in E-coordinates. A fixed basis exists exactly when
    ``a = O diag(e^{i psi}) O^T`` is a symmetric unitary (``O`` real
    orthogonal). ``O`` is the ``eigh`` basis of the real :func:`cayley`
    transform of ``a``, each column's largest-magnitude entry made positive
    so that LAPACK's signs do not leak, and :func:`phase_fix` turns ``E O``
    into the fixed basis. Raises :class:`NotInvolutive` or
    :class:`NotUnitary` when ``a conj(a)`` or ``a a*`` is not the identity.
    """
    E = as_matrix(E)
    m = E.shape[1]
    if m == 0:
        return E.copy()
    a = _restriction(J, E, tol)
    bound = tol.bound(1.0)
    involution = fro(a @ np.conj(a) - np.eye(m))
    if involution > bound:
        raise NotInvolutive(f"J^2 deviates from identity on span(E) by {involution:.3e}")
    unitarity = fro(a @ a.conj().T - np.eye(m))
    if unitarity > bound:
        raise NotUnitary(f"J is not antiunitary on span(E): deviation {unitarity:.3e}")
    _, O = np.linalg.eigh(cayley(a).real)
    O *= np.sign(O[np.argmax(np.abs(O), axis=0), np.arange(m)])
    return phase_fix(J, E @ O, tol)


def check_fixable_2d(J: AntilinearMap, psi1, psi2, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether the J-invariant span of orthonormal ``psi1, psi2`` has a
    J-fixed orthonormal basis: exactly when ``a_jk = <psi_j, J psi_k>`` is a
    symmetric unitary (see :func:`fix_basis_involutive`).
    """
    a = _restriction(J, np.column_stack([as_vector(psi1), as_vector(psi2)]), tol)
    bound = tol.bound(1.0)
    return bool(abs(a[0, 1] - a[1, 0]) <= bound and fro(a @ a.conj().T - np.eye(2)) <= bound)


def refined_svd(H, C: AntiunitaryOp, tol: Tolerance = DEFAULT_TOL) -> RefinedSVD:
    """Singular-value expansion of a C-self-adjoint ``H`` with J-fixed vectors.

    Requires every nonzero singular value to be simple (relative cluster
    gap ``SVD_CLUSTER_GAP``) or ``C`` to be involutive; otherwise raises
    :class:`UnsupportedDegeneracy`. For anti-involutive ``C`` the latter
    always fires on nonzero ``H``, since ``J^2 = -I`` on ``range(|H|)``
    admits no fixed vector. More generally ``H`` commutes with the unitary
    ``C^2``, whose conjugate eigenvalue pairs force paired singular
    values, so a simple nonzero singular value can only occur where
    ``C^2`` acts as the identity.
    """
    return _expansion(*_svd_data(H, C, tol), C, tol)


def _expansion(H, W, s, V, rank: int, C: AntiunitaryOp, tol: Tolerance) -> RefinedSVD:
    """Refined SVD of a C-self-adjoint ``H = W diag(s) V*`` from its SVD
    factors, keeping the leading ``rank`` singular values.

    The involution class of C is read only when some cluster is
    degenerate, and a degeneracy that C cannot fix raises before J is
    built. The adjoint expansion needs no residual of its own:
    ``reconstruct_adjoint()`` is ``reconstruct()*`` and has the same norm.
    """
    sigmas = s[:rank]
    groups = cluster_indices(sigmas, SVD_CLUSTER_GAP * s[0]) if rank else []
    degenerate = [idx for idx in groups if len(idx) > 1]
    if degenerate:
        kind = classify(C)
        if kind is not InvolutionClass.INVOLUTIVE:
            idx = degenerate[0]
            detail = (
                "no J-fixed vector can exist for anti-involutive C"
                if kind is InvolutionClass.ANTI_INVOLUTIVE
                else "C is not involutive"
            )
            raise UnsupportedDegeneracy(
                f"singular value {sigmas[idx[0]]:.6g} has multiplicity {len(idx)} and {detail}"
            )
    _, absH, J = _polar_factors(C, W, s, V, rank)
    # the construction gates below only need to confirm structure, not
    # re-certify it at arithmetic precision
    gate = Tolerance(abs=max(tol.abs, 1e-8), rel=tol.rel)

    phis = V[:, :rank].copy()
    spread = 0.0  # widest cluster: mixing its vectors costs up to this much
    for idx in degenerate:
        spread = max(spread, float(sigmas[idx[0]] - sigmas[idx[-1]]))
        phis[:, idx] = fix_basis_involutive(J, phis[:, idx], gate)
    simple = [idx[0] for idx in groups if len(idx) == 1]
    phis[:, simple] = phase_fix(J, phis[:, simple], gate)
    etas = C.unitary_part.T @ np.conj(phis)  # C^{-1} phi_j
    result = RefinedSVD(sigmas=sigmas, phis=phis, etas=etas)

    bound = tol.bound(max(1.0, fro(H))) + 2.0 * spread * np.sqrt(max(1, rank))
    eig_res = fro(absH @ phis - phis * sigmas)
    fix_res = fro(J.matrix @ np.conj(phis) - phis)
    recon_res = fro(H - result.reconstruct())
    worst = max(eig_res, fix_res, recon_res)
    if worst > bound:
        raise NumericalFailure(
            f"refined SVD residual {worst:.3e} exceeds bound {bound:.3e}"
        )
    return result
