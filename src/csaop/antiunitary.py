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
from functools import cached_property

import numpy as np

from .errors import DimMismatch, NotUnitary
from .linalg import CLASSIFY_TOL, DEFAULT_TOL, as_matrix, as_vector, cayley, fro

#: Largest Gram deviation ``||A*A - I||_F`` of a unitary part: absolute
#: (a unitary's singular values are 1) and fixed in n. A QR-made unitary
#: deviates by about ``n eps`` or less (4e-14 at n = 1024).
UNITARITY_TOL = 1e-10

#: Arc within which :attr:`AntiunitaryOp.square_split` merges eigenvalues of
#: ``C^{-2}``, and bound on ``||A -+ A^T||_F`` below which it splits nothing.
#: The residual of an ``H`` that :func:`~csaop.csa.generate_csa` builds from
#: the split grows to about ``0.7 * gap * ||H||``: keep DEFAULT_TOL.
C2_CLUSTER_GAP = DEFAULT_TOL.rel


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

    @classmethod
    def _unchecked(cls, matrix: np.ndarray):
        """An instance holding ``matrix`` itself, made read-only, with no
        validation: for a matrix whose structure the caller has shown."""
        op = cls.__new__(cls)
        matrix.setflags(write=False)
        op._matrix = matrix
        return op

    def adjoint(self) -> "AntilinearMap":
        """Antilinear adjoint, satisfying (phi, D psi) = conj((D* phi, psi)):
        a read-only view of ``matrix.T``, of the same type. It is not checked
        again: ``A.T`` has the singular values, so the Gram deviation, of ``A``."""
        return self._unchecked(self._matrix.T)

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

    :attr:`square_split`, the eigenbasis of ``C^{-2}``, and the generator's
    :attr:`commutant_projection` are computed on first access and kept with
    the instance: two n x n bases, a mask and n labels at most, and only for
    a C that is neither involutive nor anti-involutive. Operators from
    :meth:`adjoint` and :meth:`permuted_blocks` are new instances with their own.
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
        matrix = np.tile(0j * B, (m, m))
        matrix.reshape(m, b, m, b)[perm, :, np.arange(m), :] = (1 + 0j) * B
        return cls._unchecked(matrix)

    @property
    def unitary_part(self) -> np.ndarray:
        return self._matrix

    @cached_property
    def square_split(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Clusters of the spectrum of ``W = A^T A*``, the unitary matrix of
        ``C^{-2}``, as read-only ``(Q, labels)``; ``None`` when ``A`` is within
        :data:`C2_CLUSTER_GAP` of ``+-A^T``, so ``W`` of ``+-I`` (Frobenius norm).

        ``Q`` is the ``eigh`` basis of :func:`~csaop.linalg.cayley` of ``W``,
        and ``labels[i]`` is the index of the first angle of the cluster of
        column ``i``: a cluster spans at most the gap, so a chain of close
        eigenvalues cannot widen it. Computed once per instance, in O(n^3).
        """
        A, n = self._matrix, self.dim
        if min(_square_distances(A)) <= C2_CLUSTER_GAP:
            return None
        t, Q = np.linalg.eigh(cayley(A.T @ A.conj().T))
        labels, start = np.zeros(n, dtype=int), -np.inf
        for i, psi in enumerate(2 * np.arctan(t)):
            if psi - start > C2_CLUSTER_GAP:
                start, labels[i:] = psi, i
        Q.setflags(write=False)
        labels.setflags(write=False)
        return Q, labels

    @cached_property
    def commutant_projection(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """Read-only ``(Q, Q*, apart)`` of :attr:`square_split`, ``apart[i, j]``
        true where columns ``i`` and ``j`` of ``Q`` lie in different clusters."""
        if self.square_split is None:
            return None
        Q, labels = self.square_split
        parts = Q, Q.conj().T, labels[:, None] != labels
        for array in parts:
            array.setflags(write=False)
        return parts

    def apply_inverse(self, psi) -> np.ndarray:
        """``C^{-1} psi = C* psi = A.T @ conj(psi)``."""
        return self.adjoint().apply(psi)


def conjugation_k(n: int) -> AntiunitaryOp:
    """Plain entrywise conjugation ``K`` on C^n."""
    return AntiunitaryOp(np.eye(n))


def _square_distances(A: np.ndarray) -> tuple[float, float]:
    """``||A -+ A^T||_F`` for unitary ``A``: they equal ``||C^2 -+ I||_F``, as
    ``(A conj(A) -+ I) A^T = A -+ A^T``, and ``||W -+ I||_F``, as ``(W -+ I) A``
    ``= A^T -+ A`` for ``W = A^T A*``, the matrix of ``C^{-2}``."""
    return fro(A - A.T), fro(A + A.T)


def classify(C: AntiunitaryOp) -> InvolutionClass:
    """Classify ``C^2`` as +I (involutive), -I (anti-involutive), or neither.

    ``C^2 = +-I`` iff ``A = +-A^T`` for the unitary part ``A``, so
    :func:`_square_distances` is compared with :data:`~csaop.linalg.CLASSIFY_TOL`,
    in O(n^2) and with no ``C^2`` formed.
    """
    minus, plus = _square_distances(C.unitary_part)
    if minus <= CLASSIFY_TOL.bound(1.0):
        return InvolutionClass.INVOLUTIVE
    if plus <= CLASSIFY_TOL.bound(1.0):
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
