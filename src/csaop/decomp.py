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

:func:`refined_polar` and :func:`refined_svd` take their one SVD of ``H``
from the checked front end ``csa._csa_svd`` at ``z = 0``, which
:func:`csaop.antieig.antilinear_eigensystem` and
:func:`csaop.csa.kernel_pairing` share. Each decomposition then
schedules its products in rounds of two independent steps for
``linalg._overlap``, which decides whether they run on threads (see
:mod:`csaop.linalg`): the first step writes into arrays made for it
here, and the last is the one that can raise and makes what is
returned. Every value and error is the serial order's, bit for bit.

One fixed-basis step clusters the kept singular values in O(n) at
``SVD_CLUSTER_GAP`` times the largest, reads the involution class of
``C`` only for a degenerate cluster (a ``C`` that is not involutive is
rejected before ``J`` is applied), re-phases the simple clusters in one
call of the gate of :func:`phase_fix` and fixes each degenerate one with
that of :func:`fix_basis_involutive`, the one test of whether a
J-invariant span has a J-fixed basis. Each gate splits into its input
checks with the product ``J conj(cols)`` and a core that takes the
columns and their J-images. :func:`refined_svd` forms ``J``, which its
``fixed`` residual certifies against, and passes the public functions
bound to it. The same loop on the ``C^{-1}``-self-adjoint ``H - z I``
gives the ``psi_j`` of :func:`csaop.antieig.antilinear_eigensystem`,
which passes the cores the images ``A^T conj(W)`` read off the factors
and forms no n x n ``J``. Mixing inside a cluster costs up to its width
``w``; the certificate allows ``2 sqrt(k) max(w)`` for ``k`` values.

Each result is certified before it is returned: ``_certify`` checks the
identity residuals (Frobenius norms) against one bound and raises
:class:`NumericalFailure` naming every one that fails. The result keeps
them in ``residuals`` (name -> value), so callers read them, not
recompute them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .antiunitary import AntilinearMap, AntiunitaryOp, InvolutionClass, classify, compose_antilinear
from .csa import _csa_svd
from .errors import (
    DimMismatch, NotInvariant, NotInvolutive, NotUnitary, NumericalFailure, UnsupportedDegeneracy
)
from .linalg import (
    DEFAULT_TOL, Tolerance, _overlap, _products, as_matrix, as_vector, cayley, cluster_indices, fro
)

#: Gap between consecutive kept singular values, relative to the largest
#: (the 2-norm), below which they form one cluster; fixed in n. The
#: certificate's slack pays for the mixing inside a cluster.
SVD_CLUSTER_GAP = 1e-6

#: Least absolute tolerance of the structural gates of the fixed-basis
#: construction (orthonormality of a cluster basis, J-invariance,
#: involution, phases): they only confirm structure, while the certified
#: residuals judge the result at arithmetic precision.
GATE_TOL = 1e-8


@dataclass(frozen=True)
class RefinedPolar:
    """Triple ``(|H|, U, J)`` with ``H = U |H| = C^{-1} J |H|``.

    ``U`` is the partial isometry of the classical polar decomposition
    (zero on ``ker H``) and ``J = C o U`` is antilinear, partially
    antiunitary with initial and final set ``range(|H|)``, and commutes
    with ``|H|``. ``residuals`` holds the certified ``polar``
    (``||H - U |H|||``) and ``commutation`` (``||J |H| - |H| J||``) norms.
    """

    absH: np.ndarray
    U: np.ndarray
    J: AntilinearMap
    residuals: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class RefinedSVD:
    """Nonzero singular values with a J-fixed eigenbasis of ``|H|``.

    ``phis[:, j]`` is a unit eigenvector of ``|H|`` for ``sigmas[j]`` with
    ``J phi_j = phi_j``; ``etas[:, j] = C^{-1} phi_j`` is the matching
    eigenvector of ``|H*|``. ``residuals`` holds the certified ``eigen``
    (``|||H| phi - phi sigma||``), ``fixed`` (``||J phi - phi||``) and
    ``reconstruction`` (``||H - reconstruct()||``) norms; it is empty for
    a result built by hand.
    """

    sigmas: np.ndarray
    phis: np.ndarray
    etas: np.ndarray
    residuals: dict[str, float] = field(default_factory=dict)

    def reconstruct(self) -> np.ndarray:
        """``sum_j sigma_j eta_j phi_j*``, which reproduces ``H``."""
        return (self.etas * self.sigmas) @ self.phis.conj().T

    def reconstruct_adjoint(self) -> np.ndarray:
        """``sum_j sigma_j phi_j eta_j*``, which reproduces ``H*``."""
        return (self.phis * self.sigmas) @ self.etas.conj().T


def _certify(what: str, bound: float, **residuals: float) -> dict[str, float]:
    """The residuals, when each one is ``<= bound``; otherwise raises
    :class:`NumericalFailure` naming every one that is not (NaN is not)."""
    failed = ", ".join(f"{name} {r:.3e}" for name, r in residuals.items() if not r <= bound)
    if failed:
        raise NumericalFailure(f"{what} residuals exceed bound {bound:.3e}: {failed}")
    return residuals


def refined_polar(H, C: AntiunitaryOp, tol: Tolerance = DEFAULT_TOL) -> RefinedPolar:
    """Refined polar decomposition ``H = C^{-1} J |H|`` of a C-self-adjoint H.

    Raises :class:`NotCsa` when ``H`` fails the C-self-adjointness check
    and :class:`NumericalFailure` when the computed factors do not satisfy
    the decomposition identities within tolerance.
    """
    H, _, W, s, V, rank = _csa_svd(H, C, tol)
    n = H.shape[0]
    # three rounds of two steps (linalg._overlap): [|H| | U], [U |H| | J],
    # [|H| J | J conj(|H|)]
    absH, product = np.empty((n, n), complex), np.empty((n, n), complex)
    _, U = _overlap(n, [_products((absH, V * s, V.conj().T)), lambda: W[:, :rank] @ V[:, :rank].conj().T])
    _, J = _overlap(n, [_products((product, U, absH)), lambda: compose_antilinear(C, U)])
    polar = fro(np.subtract(H, product, out=product))
    # J |H| = |H| J as antilinear maps: B conj(|H|) = |H| B
    _, image = _overlap(n, [_products((product, absH, J.matrix)), lambda: J.matrix @ np.conj(absH)])
    commutation = fro(np.subtract(image, product, out=image))
    residuals = _certify("refined polar", tol.bound(max(1.0, fro(H))), polar=polar, commutation=commutation)
    return RefinedPolar(absH=absH, U=U, J=J, residuals=residuals)


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
    fixed = _phase_fixed(cols, J.matrix @ np.conj(cols), tol)
    return fixed[:, 0] if single else fixed


def _phase_fixed(cols: np.ndarray, images: np.ndarray, tol: Tolerance) -> np.ndarray:
    """:func:`phase_fix` of the columns ``cols``, given their J-images
    ``images = J conj(cols)``."""
    # not np.multiply(..., out=images): from 256 KB numpy writes this product
    # into the temporary conjugate, whose layout (F for V's columns) fixes
    # the order of the sum, and so the bits of the phases
    phases = np.sum(np.conj(cols) * images, axis=0)
    defect = np.abs(np.abs(phases) - 1.0)
    if np.any(defect > tol.bound(1.0)):
        worst = abs(phases[np.argmax(defect)])
        raise NotInvariant(f"|<psi, J psi>| = {worst:.6f}, expected 1")
    return cols * np.exp(0.5j * np.angle(phases))


def fix_basis_involutive(J: AntilinearMap, E, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """J-fixed orthonormal basis of a J-invariant subspace, J an antiunitary
    involution there.

    ``E`` holds m orthonormal columns spanning the subspace, on which J acts
    as ``x -> a conj(x)``, ``a = E* J conj(E)``. A fixed basis exists
    exactly when ``a = O diag(e^{i psi}) O^T`` is a symmetric unitary (``O``
    real orthogonal). ``O`` is the ``eigh`` basis of the real :func:`cayley`
    transform of ``a``, each column's largest-magnitude entry made positive
    so that LAPACK's signs do not leak, and ``E O`` re-phased by half the
    angles of ``diag(O^T a O)`` is the fixed basis. Raises
    :class:`DimMismatch` when ``E`` has other than ``J.dim`` rows, and
    :class:`NotInvolutive` or :class:`NotUnitary` when ``a conj(a)`` or
    ``a a*`` is not the identity.
    """
    E = as_matrix(E)
    if E.shape[0] != J.dim:
        raise DimMismatch(f"vector of dim {E.shape[0]} vs operator dim {J.dim}")
    return _fixed_involutive(E, J.matrix @ np.conj(E), tol)


def _fixed_involutive(E: np.ndarray, image: np.ndarray, tol: Tolerance) -> np.ndarray:
    """:func:`fix_basis_involutive` of the columns ``E``, given their
    J-images ``image = J conj(E)``."""
    m = E.shape[1]
    if m == 0:
        return E.copy()
    gram_dev = fro(E.conj().T @ E - np.eye(m))
    if gram_dev > GATE_TOL:
        raise ValueError(f"basis columns not orthonormal (deviation {gram_dev:.3e})")
    a = E.conj().T @ image
    bound = tol.bound(1.0)
    invariance = fro(image - E @ a)
    if invariance > bound:
        raise NotInvariant(f"J maps span(E) out of itself by {invariance:.3e}")
    involution = fro(a @ np.conj(a) - np.eye(m))
    if involution > bound:
        raise NotInvolutive(f"J^2 deviates from identity on span(E) by {involution:.3e}")
    unitarity = fro(a @ a.conj().T - np.eye(m))
    if unitarity > bound:
        raise NotUnitary(f"J is not antiunitary on span(E): deviation {unitarity:.3e}")
    _, O = np.linalg.eigh(cayley(a).real)
    O *= np.sign(O[np.argmax(np.abs(O), axis=0), np.arange(m)])
    phases = np.sum(O * (a @ O), axis=0)  # diag(O^T a O) = <E O, J E O> column by column
    if np.any(np.abs(np.abs(phases) - 1.0) > bound):
        raise NotInvariant("some |<phi, J phi>| on span(E) is not 1")
    return (E @ O) * np.exp(0.5j * np.angle(phases))


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
    H, _, W, s, V, rank = _csa_svd(H, C, tol)
    n, sigmas, A = H.shape[0], s[:rank], C.unitary_part
    # two rounds of two steps (linalg._overlap): [|H| | fixed basis],
    # [|H| phi and J conj(phi) | etas and reconstruction]
    groups = _singular_clusters(sigmas, C)  # before the rounds: its error waits for no product
    absH = np.empty((n, n), complex)

    def fixed_basis():  # J = A o K o U, U = W V*, as the certificate's fixed residual reads it
        kept = V[:, :rank]
        J = AntilinearMap(A @ np.conj(W[:, :rank] @ kept.conj().T))
        phis = np.empty((n, rank), complex)
        slack = _fixed_singular_basis(
            sigmas, groups, tol,
            lambda idx, gate: phase_fix(J, kept[:, idx], gate),
            lambda idx, gate: fix_basis_involutive(J, kept[:, idx], gate),
            phis,
        )
        return phis, J, slack

    _, (phis, J, slack) = _overlap(n, [_products((absH, V * s, V.conj().T)), fixed_basis])
    del W, V  # past their last use: the second round's arrays take their place
    conj_phis, eigen, fixed = np.conj(phis), np.empty((n, rank), complex), np.empty((n, rank), complex)

    def expansion():  # eta = C^{-1} phi, and reconstruct() of the result
        etas = A.T @ conj_phis
        return etas, (etas * sigmas) @ conj_phis.T

    _, (etas, reconstruction) = _overlap(n, [_products((eigen, absH, phis), (fixed, J.matrix, conj_phis)), expansion])
    # the adjoint expansion needs no residual: reconstruct_adjoint() = reconstruct()*
    residuals = _certify(
        "refined SVD",
        tol.bound(max(1.0, fro(H))) + slack,
        eigen=fro(np.subtract(eigen, phis * sigmas, out=eigen)),
        fixed=fro(np.subtract(fixed, phis, out=fixed)),
        reconstruction=fro(np.subtract(H, reconstruction, out=reconstruction)),
    )
    return RefinedSVD(sigmas=sigmas, phis=phis, etas=etas, residuals=residuals)


def _singular_clusters(s, C: AntiunitaryOp) -> list[list[int]]:
    """The clusters of the descending ``s`` at ``SVD_CLUSTER_GAP`` times the
    largest. Raises :class:`UnsupportedDegeneracy` when one holds more than
    one value and ``C`` is not involutive (see the module docstring)."""
    groups = cluster_indices(s, SVD_CLUSTER_GAP * s[0]) if len(s) else []
    idx = next((idx for idx in groups if len(idx) > 1), None)
    if idx is not None and (kind := classify(C)) is not InvolutionClass.INVOLUTIVE:
        anti = kind is InvolutionClass.ANTI_INVOLUTIVE
        detail = "no J-fixed vector can exist for anti-involutive C" if anti else "C is not involutive"
        raise UnsupportedDegeneracy(
            f"singular value {s[idx[0]]:.6g} has multiplicity {len(idx)} and {detail}"
        )
    return groups


def _fixed_singular_basis(s, groups, tol: Tolerance, fix_simple, fix_cluster, out: np.ndarray) -> float:
    """Write into ``out`` J-fixed orthonormal columns spanning the singular
    subspaces of the right factor ``V``, ``s`` descending in the clusters
    ``groups`` of :func:`_singular_clusters`, and return the slack: ``2 *
    sqrt(len(s))`` times the widest cluster's width (module docstring).

    ``fix_simple(idx, gate)`` re-phases the columns ``V[:, idx]`` of all
    simple clusters at once, as :func:`phase_fix` does, and
    ``fix_cluster(idx, gate)`` fixes one degenerate cluster's, as
    :func:`fix_basis_involutive` does; each returns the fixed columns in
    the order of ``idx``, for the gate tolerance ``gate``.
    """
    gate = Tolerance(abs=max(tol.abs, GATE_TOL), rel=tol.rel)
    for idx in groups:
        if len(idx) > 1:
            out[:, idx] = fix_cluster(idx, gate)
    simple = [idx[0] for idx in groups if len(idx) == 1]
    out[:, simple] = fix_simple(simple, gate)
    width = max((s[idx[0]] - s[idx[-1]] for idx in groups), default=0.0)
    return 2.0 * float(width) * np.sqrt(max(1, len(s)))
