"""Dense complex linear algebra kernels and numerical contracts.

Matrices and vectors are plain ``numpy.ndarray`` objects with dtype
``complex128``; every routine validates finiteness and shape instead of
trusting the caller. All residual checks in this package use the Frobenius
norm (cheap and basis-independent), and a single rank convention: singular
values below ``tol.abs`` times the largest singular value are treated as
zero everywhere.

The package's threads live here, and only here. :func:`_on_threads`
runs the parts of one call on a process-wide pool of threads, started on
first use, beside the calling thread; each pool part runs in a copy of
the caller's context (``contextvars.copy_context().run``, as
``asyncio.to_thread`` does), so it sees every context variable the
caller set, numpy's error state and error callback included. Two
functions decide every split: :func:`_scan_parts` cuts the
pseudospectrum scan's shifts into one part per CPU for blocks of
``THREAD_MIN_BLOCK`` rows up, and :func:`_overlap` runs a
decomposition's independent steps (the C-self-adjointness check beside
the SVD, then the products that certify the result) side by side from
``CHECK_THREAD_MIN_DIM`` rows up. A pool task makes no array it
returns, beyond a scan part's two vectors of norms: the arrays a pool
thread makes stay in its own glibc arena and grow the process, so a
decomposition makes every array it returns on the calling thread.
"""

from __future__ import annotations

import contextvars
import os
import threading
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


#: Least block size whose shifts the scan splits across the CPUs
#: (:func:`_scan_parts`). At 256 shifts of a dense block on a two-CPU x86
#: machine (one BLAS thread), two threads ran at 0.77-1.00x the speed of
#: one for blocks of size 4 to 32, 0.98-1.02x at 48, 1.02-1.20x at 64 and
#: 1.85-2.00x at 96 and 120 (two runs of seven).
THREAD_MIN_BLOCK = 64

#: Least dimension n at which a decomposition runs its independent steps
#: on the pool (:func:`_overlap`): the C-self-adjointness check beside the
#: SVD (``csa._checked``), then the products that certify the result. On a
#: two-CPU x86 machine (one BLAS thread), where a two-part call costs about
#: 0.05 ms on the process-wide pool against 0.14 ms for a fresh pool's
#: start and join, ``refined_polar``, ``refined_svd`` and
#: ``antilinear_eigensystem`` ran at 0.93-0.99x the serial speed at n = 64,
#: 0.95-1.05x at 80 and 96, 1.06-1.10x at 112, 1.08-1.12x at 128,
#: 1.14-1.19x at 160 and 1.19-1.32x at 256; ``kernel_pairing``, which
#: overlaps only the check, at 1.09-1.12x from 96 to 128 (medians of 15
#: interleaved rounds, two runs). With a fresh pool a call, the checked SVD
#: alone ran at 0.86-0.97x at 80 to 112 and 1.04-1.11x at 128. This is not
#: ``THREAD_MIN_BLOCK``, whose parts each hold many SVDs.
CHECK_THREAD_MIN_DIM = 112


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


#: The process-wide pool, once a call has needed one.
_pool = None
_POOL_LOCK = threading.Lock()
_pool_thread = threading.local()


def _forget_pool():
    """In a forked child: its copy of the parent's pool has no threads,
    and its copy of the lock may be held by a thread that is not there."""
    global _pool, _POOL_LOCK
    _pool, _POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _mark_pool_thread():
    _pool_thread.inside = True


def _on_threads(work, parts: list) -> list:
    """``[work(part) for part in parts]``: the process-wide pool runs every
    part but the last, each in a copy of the caller's context, while the
    calling thread runs the last. The pool starts on the first call, with
    up to one thread per CPU (it starts a thread only when it finds none
    idle); parts beyond its threads wait in its queue. When the parts
    raise an :class:`Exception`, every part finishes before the first, in
    part order, is raised here. Any other exception in the calling thread
    (a ``KeyboardInterrupt`` from a signal, say) is raised at once: the
    parts still queued are cancelled, and those running finish on their
    own. On a pool thread the parts run there, in order: a part that
    waited on the pool it occupies could wait forever."""
    global _pool
    if len(parts) == 1 or getattr(_pool_thread, "inside", False):
        return [work(part) for part in parts]
    with _POOL_LOCK:
        if _pool is None:
            # here, not at module level: it adds ~10 ms to a cold ``import csaop``
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(_cpu_count(), thread_name_prefix="csaop", initializer=_mark_pool_thread)
        pool = _pool
    futures = [pool.submit(contextvars.copy_context().run, work, part) for part in parts[:-1]]
    try:
        try:
            last, error = work(parts[-1]), None
        except Exception as exc:
            last, error = None, exc
        failures = [future.exception() for future in futures]  # waits for every part
    except BaseException:  # an interrupt: the queued parts never start, and no running part is awaited
        for future in futures:
            future.cancel()
        raise
    for failure in [*failures, error]:
        if failure is not None:
            raise failure
    return [future.result() for future in futures] + [last]


def _scan_parts(rows: int, shifts: np.ndarray) -> list:
    """The contiguous parts, in order, in which the scan takes ``shifts``
    for blocks of ``rows`` rows: one per CPU the process may run on (at
    most one per shift) from ``THREAD_MIN_BLOCK`` rows up, otherwise one.
    :func:`_on_threads` runs the parts."""
    count = max(1, min(_cpu_count(), len(shifts))) if rows >= THREAD_MIN_BLOCK else 1
    return np.array_split(shifts, count)


def _overlap(rows: int, tasks: list) -> list:
    """``[task() for task in tasks]``, the steps of one decomposition of a
    matrix of ``rows`` rows: the one place that decides whether they run
    on threads. From ``CHECK_THREAD_MIN_DIM`` rows up, in a process that
    may run on more than one CPU, :func:`_on_threads` runs the last task
    on the calling thread and the others on the pool; otherwise the
    calling thread runs them in list order. Either way the error raised is
    the first in list order, so a task whose errors come first goes
    before the last. The tasks before the last make no array they return
    (module docstring): ``csa._checked``'s check makes only temporaries,
    and products write into arrays the caller made (:func:`_products`).
    """
    if rows < CHECK_THREAD_MIN_DIM or _cpu_count() < 2:
        return [task() for task in tasks]
    return _on_threads(lambda task: task(), tasks)


def _products(*triples):
    """A task for :func:`_overlap` that writes ``x @ y`` into ``out`` for
    each ``(out, x, y)`` in turn and makes no array: the calling thread
    made the operands and ``out``. The task drops them before it returns,
    so no operand outlives the round (a pool thread lets go of a finished
    task only after its caller has moved on)."""
    pending = list(triples)

    def task():
        while pending:
            out, x, y = pending.pop(0)
            np.matmul(x, y, out=out)

    return task


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


def nullspace(M) -> np.ndarray:
    """Orthonormal basis of the numerical kernel of ``M``.

    Returns an ``n x k`` array whose columns span the kernel; ``k`` may be
    zero. A singular value is treated as zero when it falls below
    ``DEFAULT_TOL.abs`` times the largest one.
    """
    M = as_matrix(M)
    _, s, Vh = np.linalg.svd(M, full_matrices=True)
    rank = int(np.sum(s > rank_cutoff(s)))
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
    if not (np.isrealobj(values) and (np.all(steps >= 0) or np.all(steps <= 0))) or np.isnan(values).any():
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
