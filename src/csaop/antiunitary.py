"""Antilinear and antiunitary operators on C^n.

Every antilinear map on a finite-dimensional space factors uniquely as
``B o K`` where ``B`` is a matrix and ``K`` is entrywise conjugation; the
map acts as ``psi -> B @ conj(psi)``. This module provides the general
:class:`AntilinearMap` (``B`` arbitrary, e.g. a partial isometry) and the
validated :class:`AntiunitaryOp` (``B`` unitary), together with the algebra
needed elsewhere: adjoints, involution classification, conjugation of
linear maps, and composition with unitaries.

Useful identities in this representation, for ``C = A o K`` with ``A``
unitary:

* adjoint and inverse: ``C* = C^{-1} = A.T o K``
* square: ``C^2 = A @ conj(A)`` (a linear map)
* ``C`` is involutive iff ``A = A.T`` and anti-involutive iff ``A = -A.T``
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import DimMismatch, NotUnitary
from .linalg import CLASSIFY_TOL, Tolerance, as_matrix, as_vector, fro

UNITARITY_TOL = 1e-10


class InvolutionClass(enum.Enum):
    """Square of an antiunitary operator: +I, -I, or anything else."""

    INVOLUTIVE = "involutive"
    ANTI_INVOLUTIVE = "anti-involutive"
    NEITHER = "neither"


class AntilinearMap:
    """Antilinear map ``psi -> matrix @ conj(psi)``.

    No structure is imposed on ``matrix``; use :class:`AntiunitaryOp` for
    validated antiunitaries. Instances are immutable value objects.
    """

    def __init__(self, matrix):
        m = as_matrix(matrix, square=True).copy()
        m.setflags(write=False)
        self._matrix = m

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    def apply(self, psi) -> np.ndarray:
        psi = as_vector(psi)
        if psi.shape[0] != self.dim:
            raise DimMismatch(f"vector of dim {psi.shape[0]} vs operator dim {self.dim}")
        return self._matrix @ np.conj(psi)

    __call__ = apply

    def adjoint(self) -> "AntilinearMap":
        """Antilinear adjoint, satisfying (phi, D psi) = conj((D* phi, psi))."""
        return type(self)(self._matrix.T)

    def squared(self) -> np.ndarray:
        """Matrix of the (linear) map ``D o D``."""
        return self._matrix @ np.conj(self._matrix)

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


class AntiunitaryOp(AntilinearMap):
    """Antiunitary operator ``C = A o K`` with ``A`` unitary.

    The constructor validates unitarity and rejects non-unitary input instead
    of re-orthonormalizing it, since silent projection would mask caller bugs.
    One Gram product is enough: for square ``A`` with singular values ``s_i``,
    ``||A*A - I||_F`` and ``||AA* - I||_F`` both equal ``sqrt(sum (s_i^2 - 1)^2)``.
    :meth:`permuted_blocks` checks a lifted ``kron(R, B)`` from its factors.
    """

    def __init__(self, unitary_part):
        super().__init__(unitary_part)
        A = self._matrix
        dev = fro(A.conj().T @ A - np.eye(self.dim))
        if not dev <= UNITARITY_TOL:  # a NaN deviation fails
            raise NotUnitary(f"unitary part deviates from unitarity by {dev:.3e}")

    @classmethod
    def permuted_blocks(cls, partner, block) -> "AntiunitaryOp":
        """``kron(R, block) o K`` with ``R[partner[j], j] = 1``, in O(n^2).

        ``partner`` must be a permutation (``ValueError``); ``kron(R, B)`` has
        Gram deviation ``sqrt(m) ||B*B - I||_F``. Slots hold ``R[i, j] * B``,
        ``R[i, j]`` complex, so the bytes (signs of zero too) are ``np.kron``'s.
        """
        B, perm = as_matrix(block, square=True), np.asarray(partner)
        m, b = perm.size, len(B)
        if perm.ndim != 1 or perm.dtype.kind not in "iu" or not np.array_equal(np.sort(perm), np.arange(m)):
            raise ValueError("partner must be a permutation of 0, ..., m - 1")
        dev = np.sqrt(m) * fro(B.conj().T @ B - np.eye(b))
        if not dev <= UNITARITY_TOL:
            raise NotUnitary(f"unitary part deviates from unitarity by {dev:.3e}")
        op = cls.__new__(cls)
        op._matrix = np.tile(0j * B, (m, m))
        op._matrix.reshape(m, b, m, b)[perm, :, np.arange(m), :] = (1 + 0j) * B
        op._matrix.setflags(write=False)
        return op

    @property
    def unitary_part(self) -> np.ndarray:
        return self._matrix

    def apply_inverse(self, psi) -> np.ndarray:
        """``C^{-1} psi = A.T @ conj(psi)`` without building a new operator."""
        psi = as_vector(psi)
        if psi.shape[0] != self.dim:
            raise DimMismatch(f"vector of dim {psi.shape[0]} vs operator dim {self.dim}")
        return self._matrix.T @ np.conj(psi)


def conjugation_k(n: int) -> AntiunitaryOp:
    """Plain entrywise conjugation ``K`` on C^n."""
    return AntiunitaryOp(np.eye(n))


def classify(C: AntilinearMap, tol: Tolerance = CLASSIFY_TOL) -> InvolutionClass:
    """Classify ``C^2`` as +I (involutive), -I (anti-involutive), or neither.

    The default tolerance is looser than arithmetic tolerance because the
    classification gates algorithm branches downstream.
    """
    square = C.squared()
    eye = np.eye(C.dim)
    bound = tol.bound(1.0)
    if fro(square - eye) <= bound:
        return InvolutionClass.INVOLUTIVE
    if fro(square + eye) <= bound:
        return InvolutionClass.ANTI_INVOLUTIVE
    return InvolutionClass.NEITHER


def conjugate_linear_map(C: AntiunitaryOp, H) -> np.ndarray:
    """Matrix of the linear map ``C H C^{-1}``.

    For ``C = A o K`` this is ``A @ conj(H) @ A*``.
    """
    H = as_matrix(H, square=True)
    A = C.unitary_part
    if H.shape[0] != C.dim:
        raise DimMismatch(f"matrix dim {H.shape[0]} vs operator dim {C.dim}")
    return A @ np.conj(H) @ A.conj().T


def compose_antilinear(C: AntiunitaryOp, U) -> AntilinearMap:
    """Antilinear composition ``C o U`` for a linear map ``U``.

    The result acts as ``psi -> A @ conj(U @ psi)`` and therefore has
    matrix ``A @ conj(U)``. Returns an :class:`AntiunitaryOp` when that
    matrix is unitary (``U`` unitary) and a plain :class:`AntilinearMap`
    otherwise (``U`` a partial isometry).
    """
    U = as_matrix(U, square=True)
    if U.shape[0] != C.dim:
        raise DimMismatch(f"matrix dim {U.shape[0]} vs operator dim {C.dim}")
    B = C.unitary_part @ np.conj(U)
    try:
        return AntiunitaryOp(B)
    except NotUnitary:
        return AntilinearMap(B)
