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
SVD against ``C^{-1}``: the checked SVD front end ``csa._csa_svd`` of the
refined expansions, then the fixed-basis step and cluster slack of
``decomp.refined_svd``. It keeps the residuals it was certified with:
the expansion and the completeness of the ``psi_j``.

:func:`resolvent_norm` and the :func:`pseudospectrum` scan share one
kernel. It splits ``H`` along its exact structural zeros into a direct
sum of diagonal blocks, grouped by size in whole-array form
(:func:`~csaop.linalg.direct_sum_blocks`; the spin toy model is one 2x2
momentum symbol per block); ``sigma_min(H - z I)`` is the least
``sigma_min`` over the blocks, and ``||H - z I||_F`` the norm of all
their singular values. Blocks of 1 or 2 rows, the toy model's included,
take both from a closed form with no LAPACK call; larger blocks of one
size take batched SVDs of their shifted stacks, and a dense ``H`` is a
single block. One spectrum rule, shared with the eigensystem, puts
``z`` in the spectrum when ``sigma_min <= SPECTRUM_CUTOFF * ||H - z I||_F``
and raises :class:`NonFinite` when that norm, or an entry of ``H - z I``,
overflows (or is NaN).

Grid points are independent problems (Trefethen, "Computation of
pseudospectra", Acta Numerica 8, 1999), so the kernel splits the shifts of
blocks of at least ``THREAD_MIN_BLOCK`` rows into one contiguous part per
CPU the process may run on and runs each part's batched SVD on its own
thread: numpy's LAPACK loop releases the GIL. Each part builds its
shifted stack in place, the stacks in flight together stay under ~64 MB,
and every value is bit for bit the one a single thread computes. The
closed form runs on the calling thread, a few thousand shifted blocks at
a time.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .antiunitary import AntiunitaryOp
from .csa import _csa_svd
from .decomp import _certify, _fixed_singular_basis
from .errors import DimMismatch, NonFinite, ZInSpectrum
from .linalg import DEFAULT_TOL, Tolerance, as_matrix, column_norms, direct_sum_blocks, fro

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
    and points numerically in the spectrum, which carry ``resolvent_norm =
    inf`` and lie in every epsilon-pseudospectrum, even where ``1/epsilon``
    overflows to ``inf``.
    """

    epsilon: float
    zs: np.ndarray
    resolvent_norms: np.ndarray
    in_pseudospectrum: np.ndarray


@np.errstate(divide="ignore", over="ignore")  # 1 / smin past the float range: inf
def _resolvent(smin, norm):
    """``1 / smin``, or ``inf`` (``z`` in the spectrum) where ``smin <=
    SPECTRUM_CUTOFF * norm``, per shift: ``smin = sigma_min(H - z I)`` and
    ``norm = ||H - z I||_F``, which must be finite (else :class:`NonFinite`)."""
    if not np.all(norm < np.inf):
        raise NonFinite("||H - zI||_F overflows")
    return np.where(smin <= SPECTRUM_CUTOFF * norm, np.inf, 1.0 / smin)


#: Least block size whose shifts :func:`_resolvent_norms` splits across the
#: CPUs. At 256 shifts of a dense block on a two-CPU x86 machine (one BLAS
#: thread), two threads ran at 0.77-1.00x the speed of one for blocks of
#: size 4 to 32, 0.98-1.02x at 48, 1.02-1.20x at 64 and 1.85-2.00x at 96
#: and 120 (two runs of seven).
THREAD_MIN_BLOCK = 64


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _on_threads(work, parts: list) -> list:
    """``[work(part) for part in parts]``, every part after the first on a
    thread of its own, all under the caller's numpy error state (which
    ``np.errstate`` does not carry into new threads). Every started thread
    is joined before the first exception, in part order, re-raises here."""
    if len(parts) == 1:
        return [work(parts[0])]
    state, results, errors = np.geterr(), [None] * len(parts), [None] * len(parts)

    def run(i):
        try:
            with np.errstate(**state):
                results[i] = work(parts[i])
        except BaseException as exc:  # re-raised in the caller's thread
            errors[i] = exc

    threads = []
    try:
        for i in range(1, len(parts)):
            thread = threading.Thread(target=run, args=(i,))
            thread.start()
            threads.append(thread)
        run(0)
    finally:
        for thread in threads:
            thread.join()
    for error in errors:
        if error is not None:
            raise error
    return results


def _shifted(blocks: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """The stack of ``blocks - z I``, one slice per shift in ``zs``, written
    straight into one new array, with no stack-sized temporary.

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


def _largest_part(x: np.ndarray) -> np.ndarray:
    """The larger of ``|Re x|`` and ``|Im x|``, entrywise."""
    return np.maximum(np.abs(x.real), np.abs(x.imag))


def _squared(x: np.ndarray) -> np.ndarray:
    """``|x|^2``, entrywise."""
    return np.square(x.real) + np.square(x.imag)


def _closed_form(blocks: np.ndarray, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``sigma_min`` and the Frobenius norm of ``B - z I`` for each block
    ``B`` of ``blocks`` (1 or 2 rows) at each shift ``z`` in ``zs``, as two
    ``len(zs) x len(blocks)`` arrays, in closed form (no LAPACK call).

    A 1 x 1 block ``[h - z]`` has both equal to ``|h - z|``. A 2 x 2 block
    ``[[a, b], [c, d]]`` has ``f = ||B - z I||_F^2 = p + q`` (``p``, ``q``
    its squared row norms) and ``|ad - bc| = sigma_max sigma_min``, and the
    eigenvalues of ``(B - z I)(B - z I)*`` give ``sigma_max^2 = (f +
    hypot(p - q, 2 |a conj(c) + b conj(d)|)) / 2``: a sum of nonnegative
    terms, where ``(sqrt(f + 2 |ad - bc|) + sqrt(f - 2 |ad - bc|)) / 2``
    would lose half the digits to cancellation when the two singular
    values are close. So ``sigma_max`` comes to a few ulps, and
    ``sigma_min = |ad - bc| / sigma_max`` to a few ulps of ``sigma_max``,
    as from an SVD. Each shifted block is first multiplied by the power of
    two that brings its largest real or imaginary part into ``[1/2, 1)``
    (exact, and a zero block stays zero), so no square overflows or
    underflows and the ``hypot`` is a plain root of squares; scaled back,
    the results overflow only where the norm does. A shifted entry that
    overflows gives an infinite norm (1 x 1) or raises :class:`NonFinite`
    before any arithmetic on it (2 x 2).
    """
    diagonal = [blocks[:, i, i] - zs[:, None] for i in range(blocks.shape[1])]
    if len(diagonal) == 1:
        s = np.abs(diagonal[0])  # inf where the entry overflows
        return s, s
    (a, d), b, c = diagonal, blocks[:, 0, 1], blocks[:, 1, 0]
    top = np.maximum(_largest_part(a), _largest_part(d))
    top = np.maximum(top, np.maximum(_largest_part(b), _largest_part(c)))
    if not np.all(top < np.inf):
        raise NonFinite("||H - zI||_F overflows")
    # 2**-e for top in [2**(e-1), 2**e), capped at 2**1023 for a subnormal top
    scale = np.ldexp(1.0, np.minimum(-np.frexp(top)[1], 1023))
    a, b, c, d = a * scale, b * scale, c * scale, d * scale
    p = _squared(a) + _squared(b)
    q = _squared(c) + _squared(d)
    f = p + q
    smax = np.sqrt((f + np.sqrt(np.square(p - q) + 4 * _squared(a * c.conj() + b * d.conj()))) / 2)
    smin = np.abs(a * d - b * c) / np.where(f > 0, smax, 1.0)
    return smin / scale, np.sqrt(f) / scale


#: Shifted blocks per call of :func:`_closed_form`; its temporaries take
#: 184 bytes a 2 x 2 block, under 1 MB in all. On a two-CPU x86 machine,
#: chunks of 2**12 blocks ran 1.6x as fast per block as one chunk of 80
#: blocks x 256 shifts, and 2x as fast as one of 600 blocks x 1024 shifts;
#: chunks of 2**11 and 2**13 blocks were no faster.
CLOSED_FORM_CHUNK = 2**12


def _block_norms(blocks: np.ndarray, zs: np.ndarray, step: int) -> tuple[np.ndarray, np.ndarray]:
    """``sigma_min`` and the norm of all singular values of ``blocks - z I``
    at each shift in ``zs``, ``step`` shifts at a time: for blocks of 1 or
    2 rows from :func:`_closed_form` and :func:`~csaop.linalg.column_norms`
    over its block norms, else from one batched SVD and the ``hypot`` of
    its values."""
    smin, norm = np.empty(len(zs)), np.empty(len(zs))
    for start in range(0, len(zs), step):
        part = slice(start, start + step)
        if blocks.shape[1] <= 2:
            s, norms = _closed_form(blocks, zs[part])  # per block
            smin[part], norm[part] = s.min(axis=1), column_norms(norms.T)
        else:
            s = np.linalg.svd(_shifted(blocks, zs[part]), compute_uv=False)
            smin[part] = s[..., -1].min(axis=1)
            norm[part] = np.hypot.reduce(s.reshape(len(s), -1), axis=1)
    return smin, norm


@np.errstate(over="ignore")  # an overflowing entry or norm raises NonFinite: _shifted, _closed_form, _resolvent
def _resolvent_norms(H: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """:func:`_resolvent` at each shift in ``zs``.

    :func:`~csaop.linalg.direct_sum_blocks` splits ``H != 0`` into
    diagonal blocks, one index array per block size, sizes in the order
    of their first block, which fixes the order of the ``hypot`` over
    the groups. Blocks of 1 or 2 rows go through :func:`_closed_form`,
    ``CLOSED_FORM_CHUNK`` shifted blocks at a time, and larger blocks of
    one size through batched SVDs of their shifted stacks. ``sigma_min``
    is the least over all blocks and ``||H - z I||_F`` the norm of all
    their singular values, rescaled so that it does not overflow or
    underflow where it is representable. A 0 x 0 ``H`` is the zero map,
    of norm 0.

    For blocks of at least ``THREAD_MIN_BLOCK`` rows the shifts are split
    into one contiguous part per CPU (:func:`_cpu_count`), and each part
    runs on its own thread, since numpy's LAPACK loop releases the GIL;
    smaller blocks, a single shift and a one-CPU process stay on the
    calling thread. No shift's value depends on the others or on the
    split, so the result is bit for bit the same on any CPU count. The
    stacks of all parts in flight together take ~64 MB at most, and the
    closed form's temporaries about 1 MB.
    """
    smin = np.full(len(zs), np.inf)
    frobenius = np.zeros(len(zs))
    for m, index in direct_sum_blocks(H != 0).items():
        blocks = H[index[:, :, None], index[:, None, :]]
        count = max(1, min(_cpu_count(), len(zs))) if m >= THREAD_MIN_BLOCK else 1
        if m <= 2:  # see CLOSED_FORM_CHUNK
            step = max(1, CLOSED_FORM_CHUNK // len(index))
        else:
            step = max(1, 2**22 // (count * len(index) * m * m))  # ~64 MB of stacks in flight
        parts = _on_threads(lambda part: _block_norms(blocks, part, step), np.array_split(zs, count))
        block_min, block_norm = map(np.concatenate, zip(*parts))  # back in shift order
        smin = np.minimum(smin, block_min)
        frobenius = np.hypot(frobenius, block_norm)
    return _resolvent(smin, frobenius)


def resolvent_norm(H, z: complex) -> float:
    """Operator norm ``||(H - z I)^{-1}|| = 1 / sigma_min(H - z I)``.

    Returns ``inf`` when ``z`` is numerically in the spectrum; raises
    ``ValueError`` for a non-finite ``z`` and :class:`NonFinite` when
    ``||H - z I||_F`` or one of its entries overflows. This is the block
    scan of :func:`pseudospectrum` at the one point ``z`` (closed forms
    for blocks of 1 or 2 rows, an SVD per larger block), on the calling
    thread (one shift makes one part), so the two agree exactly.
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
    H, M, W, s, V, _ = _csa_svd(H, C, tol, z, (ValueError, "z must be finite"))
    z, n = complex(z), H.shape[0]
    if n == 0:
        raise DimMismatch("a 0 x 0 H has no antilinear eigenvalues")
    if _resolvent(s[-1], np.hypot.reduce(s)) == np.inf:
        raise ZInSpectrum(f"sigma_min(H - zI) = {s[-1]:.3e}; shift z = {z} is in the spectrum")
    A = C.unitary_part
    phis, _, slack = _fixed_singular_basis(A.T, W, V, s, C, tol)
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
    :func:`resolvent_norm` on ``H``'s direct-sum split: closed forms for
    blocks of 1 or 2 rows (the toy model meets no SVD), batched SVDs per
    larger block size (a dense ``H`` is one n x n SVD per point), so each
    norm equals ``resolvent_norm(H, z)`` exactly. Blocks of at least
    ``THREAD_MIN_BLOCK`` rows split the points into one part per CPU, each
    on its own thread; the norms and the mask do not depend on the CPU
    count, and all parts' shifted stacks together take ~64 MB at most.
    Points in the spectrum are in the mask at every ``epsilon``.
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
    # 1 / epsilon is inf below 2**-1024 (a Python float: numpy's warns)
    mask = np.isinf(norms) | (norms > 1.0 / float(epsilon))
    return PseudospectrumGrid(
        epsilon=float(epsilon), zs=zs, resolvent_norms=norms, in_pseudospectrum=mask
    )
