"""Dense complex linear algebra kernels and numerical contracts.

Matrices and vectors are plain ``numpy.ndarray`` objects with dtype
``complex128``; every routine validates finiteness and shape instead of
trusting the caller. All residual checks in this package use the Frobenius
norm (cheap and basis-independent), and a single rank convention: singular
values below ``tol.abs`` times the largest singular value are treated as
zero everywhere. The package's one thread helper, :func:`_on_threads`,
lives here with the size thresholds of its two users, the pseudospectrum
scan and the checked decompositions.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, NonFinite


@dataclass(frozen=True)
class Tolerance:
    """Absolute/relative tolerance pair used by all residual checks.

    A residual ``r`` at scale ``s`` passes when
    ``r <= abs * min(1, s) + rel * s``. From ``s = 1`` up this is
    ``abs + rel * s``; below 1 the absolute part shrinks with the scale, so
    a check scaled by ``||H||`` judges a tiny ``H`` by its own size, and
    the bound at scale 0 is 0. Checks of unit-size quantities (unit
    vectors, unitarity) use ``s = 1``; certificates use ``max(1, ||H||)``.
    """

    abs: float = 1e-10
    rel: float = 1e-10

    def __post_init__(self):
        if not (0 <= self.abs < np.inf and 0 <= self.rel < np.inf):
            raise ValueError("tolerances must be finite and nonnegative")
        if self.abs == 0 and self.rel == 0:
            raise ValueError("abs and rel tolerance cannot both be zero")

    def bound(self, scale: float) -> float:
        """Largest residual accepted at the given scale."""
        return self.abs * min(1.0, float(scale)) + self.rel * float(scale)


DEFAULT_TOL = Tolerance()

#: Bound on ``||A -+ A^T||_F`` in :func:`~csaop.antiunitary.classify`, which
#: gates algorithm branches: absolute (``A`` is unitary), fixed in n, looser
#: than DEFAULT_TOL.
CLASSIFY_TOL = Tolerance(abs=1e-8, rel=0.0)


#: Plain Frobenius norm below which :func:`fro` rescales: squares of
#: entries under about 1e-154 lose precision and under 1e-162 vanish.
FRO_UNDERFLOW = 1e-150


@np.errstate(over="ignore")  # as a decorator: half the cost of a with-block per call
def fro(M: np.ndarray) -> float:
    """Frobenius norm, finite and nonzero whenever it is representable.

    When the plain sum of squares overflows, or its root falls below
    ``FRO_UNDERFLOW``, the entries' moduli are divided by the largest one
    first, if it is finite and nonzero (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2002, sec. 21); other input is not rescaled.
    Dividing the real moduli, not the complex entries, keeps a subnormal
    largest modulus from giving NaN, as complex division by it does.
    """
    norm = float(np.linalg.norm(M))
    if norm == np.inf or norm < FRO_UNDERFLOW:
        moduli = np.abs(M)
        top = float(moduli.max(initial=0.0))
        if 0 < top < np.inf:
            norm = top * float(np.linalg.norm(moduli / top))
    return norm


@np.errstate(over="ignore")  # a column whose squares overflow is rescaled below
def column_norms(M: np.ndarray) -> np.ndarray:
    """The 2-norm of each column of ``M``, rescaled column by column as
    :func:`fro` rescales the whole matrix."""
    norms = np.linalg.norm(M, axis=0)
    redo = np.flatnonzero((norms == np.inf) | (norms < FRO_UNDERFLOW))
    if redo.size:
        moduli = np.abs(M[:, redo])
        top = moduli.max(axis=0, initial=0.0)
        fine = (0 < top) & (top < np.inf)
        norms[redo[fine]] = top[fine] * np.linalg.norm(moduli[:, fine] / top[fine], axis=0)
    return norms


def as_matrix(M, square: bool = False) -> np.ndarray:
    """Coerce to a finite 2-d complex array (copy only when needed)."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2:
        raise DimMismatch(f"expected a matrix, got shape {M.shape}")
    if square and M.shape[0] != M.shape[1]:
        raise DimMismatch(f"expected a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M.real)) or not np.all(np.isfinite(M.imag)):
        raise NonFinite("matrix has non-finite entries")
    return M


def as_vector(v) -> np.ndarray:
    """Coerce to a finite 1-d complex array."""
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1:
        raise DimMismatch(f"expected a vector, got shape {v.shape}")
    if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
        raise NonFinite("vector has non-finite entries")
    return v


#: Least block size whose shifts :func:`~csaop.antieig.pseudospectrum`
#: splits across the CPUs. At 256 shifts of a dense block on a two-CPU x86
#: machine (one BLAS thread), two threads ran at 0.77-1.00x the speed of
#: one for blocks of size 4 to 32, 0.98-1.02x at 48, 1.02-1.20x at 64 and
#: 1.85-2.00x at 96 and 120 (two runs of seven).
THREAD_MIN_BLOCK = 64

#: Least dimension n at which :func:`~csaop.csa._checked` runs the
#: C-self-adjointness check on a pool thread while the calling thread
#: factorises. On a two-CPU x86 machine (one BLAS thread, a fresh pool a
#: call), the checked SVD of a random C-self-adjoint H ran at 0.66-0.78x
#: the serial speed at n = 48 and 64, 0.86-0.97x at 80 to 112, 1.04-1.11x
#: at 128, 1.09-1.12x at 160, 1.15-1.19x at 192 and 1.21-1.22x at 256
#: (medians of seven interleaved rounds, two runs). Starting and joining
#: the pool costs about half a millisecond, more than the check saves
#: below n = 128, so this is not ``THREAD_MIN_BLOCK``, whose parts each
#: hold many SVDs.
CHECK_THREAD_MIN_DIM = 128


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _on_threads(work, parts: list) -> list:
    """``[work(part) for part in parts]``: the calling thread runs the first
    part and a pool of ``len(parts) - 1`` threads the others, every part
    under the caller's numpy error state, callback included (a new thread
    starts from numpy's defaults). The pool joins all its threads before
    the first exception, in part order, re-raises here."""
    if len(parts) == 1:
        return [work(parts[0])]
    from concurrent.futures import ThreadPoolExecutor  # here, not at module level: it adds ~10 ms to a cold ``import csaop``

    state = {"call": np.geterrcall(), **np.geterr()}

    def run(part):
        with np.errstate(**state):
            return work(part)

    with ThreadPoolExecutor(len(parts) - 1) as pool:
        rest = pool.map(run, parts[1:])
        return [run(parts[0]), *rest]


def _shifted(blocks: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """The stack of ``blocks - z I``, one slice per shift in ``zs``, written
    straight into one new array, with no stack-sized temporary. ``blocks``
    is a finite ``(count, m, m)`` array and ``zs`` a 1-d complex array.

    Each entry takes the arithmetic of ``blocks - zs * eye``: ``b - z * 0``
    off the diagonal (which turns some -0.0 parts into +0.0; LAPACK's
    singular values can depend on signs of zero) and ``b - z * 1`` on it.
    Raises :class:`NonFinite` when a shifted entry overflows, so LAPACK
    never sees one.
    """
    count, m = blocks.shape[:2]
    stack = np.subtract(blocks, (zs * 0)[:, None, None, None], out=np.empty((len(zs), count, m, m), complex))
    diagonal = stack.reshape(len(zs), count, m * m)[..., :: m + 1]
    np.subtract(np.diagonal(blocks, axis1=1, axis2=2), (zs * 1)[:, None, None], out=diagonal)
    if not np.isfinite(diagonal).all():  # off the diagonal, b - z * 0 is b up to the sign of a zero
        raise NonFinite("||H - zI||_F overflows")
    return stack


def rank_cutoff(sigma: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> float:
    """Threshold below which singular values count as zero."""
    return tol.abs * (float(sigma[0]) if len(sigma) else 0.0)


def nullspace(M, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the numerical kernel of ``M``.

    Returns an ``n x k`` array whose columns span the kernel; ``k`` may be
    zero. A singular value is treated as zero when it falls below
    ``tol.abs`` times the largest one.
    """
    M = as_matrix(M)
    _, s, Vh = np.linalg.svd(M, full_matrices=True)
    rank = int(np.sum(s > rank_cutoff(s, tol)))
    return Vh.conj().T[:, rank:]


def direct_sum_blocks(linked) -> dict[int, np.ndarray]:
    """The diagonal blocks of the direct sum that ``linked`` splits into.

    ``i`` and ``j`` of the ``n x n`` boolean ``linked`` share a block when
    a path of links (``linked[i, j]`` or ``linked[j, i]``) joins them.
    Returns ``{m: count x m index array}``: rows are blocks, members
    ascending; rows and sizes (by first row) follow the blocks' least
    members. Hooking and pointer jumping (Shiloach and Vishkin, J.
    Algorithms 3, 1982): each round hooks every root onto the least root
    linked to it and points every index at its root, so a root is its
    block's least member; a round at least halves the roots with links left.
    """
    linked = np.asarray(linked, dtype=bool)
    i, j = np.divmod(np.flatnonzero(linked), len(linked))  # 6-9x as fast as np.nonzero
    label = np.arange(len(linked))
    while not np.array_equal(li := label[i], lj := label[j]):
        np.minimum.at(label, li, lj)  # both ways: no transpose of linked
        np.minimum.at(label, lj, li)
        while not np.array_equal(label[label], label):
            label = label[label]
    order = np.argsort(label, kind="stable")
    sizes = np.bincount(label, minlength=len(label))[label == np.arange(len(label))]  # per root
    starts = np.cumsum(sizes) - sizes
    distinct, first = np.unique(sizes, return_index=True)
    return {int(m): order[starts[sizes == m][:, None] + np.arange(m)] for m in distinct[np.argsort(first)]}


def cluster_indices(values: np.ndarray, gap: float) -> list[list[int]]:
    """Group sorted real values (singular values, either order) into
    clusters split wherever ``|v_{i+1} - v_i| > gap``.

    This is single linkage at ``gap``: rounding is monotone, so no farther
    pair is closer than a neighbouring one, and the split takes O(n) time
    and memory. Returns consecutive index groups, ``[]`` for empty input;
    raises ``ValueError`` on complex or unsorted (or NaN) input.
    """
    values = np.asarray(values)
    steps = np.diff(values)
    if not (np.isrealobj(values) and (np.all(steps >= 0) or np.all(steps <= 0))):
        raise ValueError("cluster_indices needs sorted real values")
    if not values.size:
        return []
    cuts = [0, *(np.flatnonzero(np.abs(steps) > gap) + 1).tolist(), values.size]
    index = list(range(values.size))
    return [index[a:b] for a, b in zip(cuts[:-1], cuts[1:])]


def cayley(W: np.ndarray) -> np.ndarray:
    """Hermitian Cayley transform of the unitary ``W``, cut at its widest gap.

    ``W`` is rotated so that its widest spectral gap (placed from ``+-arccos``
    of the spectrum of ``(W + W*) / 2``) sits at -1, then mapped by
    ``e^{i psi} -> tan(psi / 2)``. That keeps the eigenvalue order and at
    most halves distances, so an ``eigh`` basis of the result diagonalises
    ``W`` to rounding even inside clusters, where ``eig`` then ``qr`` does
    not. A symmetric unitary ``W`` gives a real symmetric result.
    """
    n = W.shape[0]
    half = np.arccos(np.clip(np.linalg.eigvalsh((W + W.conj().T) / 2), -1.0, 1.0))
    angles = np.sort(np.concatenate([half, -half]))
    gaps = np.diff(angles, append=angles[0] + 2 * np.pi)
    V = -np.exp(-1j * (angles + gaps / 2)[np.argmax(gaps)]) * W
    eye = np.eye(n)
    return 1j * np.linalg.solve(eye + V, eye - V)  # Hermitian to rounding
