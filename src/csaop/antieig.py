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
refined expansions, then the fixed-basis loop and cluster slack of
``decomp.refined_svd``. The loop's gates take the J-images of ``V``'s
columns from the factors, ``J v_j = A^T conj(w_j)``, one product with no
n x n ``J``; ``refined_svd`` forms its ``J``, which it certifies against.
It keeps the residuals it was certified with: the expansion and the
completeness of the ``psi_j``.

:func:`resolvent_norm` and the :func:`pseudospectrum` scan share one
kernel. It splits ``H`` along its exact structural zeros into a direct
sum of diagonal blocks, grouped by size in whole-array form
(:func:`~csaop.linalg.direct_sum_blocks`; the spin toy model is one 2x2
momentum symbol per block); ``sigma_min(H - z I)`` is the least
``sigma_min`` over the blocks, and ``||H - z I||_F`` the norm of all
their singular values. Blocks of 1 or 2 rows, the toy model's included,
take both from a closed form with no LAPACK call; larger blocks of one
size take batched SVDs of their shifted stacks, and a dense ``H`` is a
single block. One spectrum rule, :func:`_in_spectrum`, shared with the
eigensystem, puts ``z`` in the spectrum when ``sigma_min <= SPECTRUM_CUTOFF
* ||H - z I||_F``; the scan raises :class:`NonFinite` when that norm, or an
entry of ``H - z I``, overflows (or is NaN).

Grid points are independent problems (Trefethen, "Computation of
pseudospectra", Acta Numerica 8, 1999), so the kernel runs the shifts of
each block size in the contiguous parts of ``linalg._scan_parts`` on the
threads of ``linalg._on_threads`` (the module docstring of
:mod:`csaop.linalg` tells how), each part's batched SVD on its own thread.
Each part builds its shifted stacks in place, in chunks of
``linalg._svd_chunk`` shifts: the least that numpy's LAPACK loop runs
without the GIL, more than ``linalg.GIL_FREE_VALUES`` singular values a
call (2.3 MB of stacks in flight for a dense n = 120 on two CPUs). The
closed form runs in plain arithmetic, ``CLOSED_FORM_CHUNK`` shifted
blocks at a time in 1 MB of buffers that every chunk reuses, and
rescales by powers of two only the (shift, block) pairs whose squares
leave ``PLAIN_RANGE``. No value depends on the split or the chunks, so
each is bit for bit the one a single thread computes. The eigensystem's
check runs beside its SVD (``csa._checked``), and its completeness
product ``psi psi*`` beside the expansion's two products, into an array
made on the calling thread, as ``linalg._overlap`` decides.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .antiunitary import AntiunitaryOp
from .csa import _csa_svd
from .decomp import _certify, _fixed_involutive, _fixed_singular_basis, _phase_fixed, _singular_clusters
from .errors import DimMismatch, NonFinite, ZInSpectrum
from .linalg import (
    DEFAULT_TOL, Tolerance, _on_threads, _overlap, _products, _scan_parts, _shifted, _svd_chunk, as_matrix,
    column_norms, direct_sum_blocks, fro,
)

#: sigma_min(H - z I) at or below this fraction of ||H - z I||_F puts z in
#: the spectrum: relative and fixed in n. It is at least 4500 times
#: eps ||H - z I||_2, the order of a computed sigma_min's rounding error.
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
    overflows to ``inf``. A norm is also ``inf`` where ``1 / sigma_min``
    overflows (``sigma_min`` below about ``5.6e-309``); outside the
    spectrum such a point is marked only where ``sigma_min < epsilon``.
    """

    epsilon: float
    zs: np.ndarray
    resolvent_norms: np.ndarray
    in_pseudospectrum: np.ndarray


def _in_spectrum(smin, norm):
    """The spectrum rule: whether ``sigma_min(H - z I) <= SPECTRUM_CUTOFF ||H - z I||_F``."""
    return smin <= SPECTRUM_CUTOFF * norm


@np.errstate(divide="ignore", over="ignore")  # 1 / smin past the float range: inf
def _resolvent(smin, norm):
    """``1 / smin`` (``inf`` where it overflows), or ``inf`` where
    :func:`_in_spectrum` holds; ``norm`` must be finite (else :class:`NonFinite`)."""
    if not np.all(norm < np.inf):
        raise NonFinite("||H - zI||_F overflows")
    return np.where(_in_spectrum(smin, norm), np.inf, 1.0 / smin)


def _largest_part(x: np.ndarray) -> np.ndarray:
    """The larger of ``|Re x|`` and ``|Im x|``, entrywise."""
    return np.maximum(np.abs(x.real), np.abs(x.imag))


def _squared(x: np.ndarray, out=None, work=None) -> np.ndarray:
    """``|x|^2``, entrywise; into ``out``, with ``work`` as scratch, when given."""
    return np.add(np.square(x.real, out=out), np.square(x.imag, out=work), out=out)


def _scaled(a, b, c, d) -> tuple[np.ndarray, np.ndarray]:
    """``sigma_min`` and ``||B - z I||_F`` of the shifted blocks ``B - z I =
    [[a, b], [c, d]]``, entrywise over arrays of one shape, each block first
    multiplied by the power of two that brings its largest real or
    imaginary part into ``[1/2, 1)`` (exact, and a zero block stays zero),
    so no square overflows or underflows and the ``hypot`` is a plain root
    of squares; scaled back, the results overflow only where the norm
    does. Raises :class:`NonFinite` when an entry overflows, before any
    arithmetic on it."""
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
    # np.multiply, not ``a * c.conj()``: for a temporary of 256 KB or more
    # the operator may run as ``c.conj() * a``, which rounds differently
    x = np.multiply(a, c.conj()) + np.multiply(b, d.conj())
    smax = np.sqrt((f + np.sqrt(np.square(p - q) + 4 * _squared(x))) / 2)
    smin = np.abs(a * d - b * c) / np.where(f > 0, smax, 1.0)
    return smin / scale, np.sqrt(f) / scale


#: Squared norms ``f = ||B - z I||_F^2`` of a shifted 2 x 2 block for which
#: :class:`_ClosedForm` keeps its plain arithmetic; the other (shift,
#: block) pairs take :func:`_scaled`. In range no term of degree 4 (each at
#: most ``f^2``) passes ``2**480``, and every term that can reach the last
#: bit of ``sigma_max`` (at least ``2**-110 f^2``) stays above ``2**-590``,
#: far from the subnormals. So the plain ``sigma_max`` and norm are the
#: scaled ones times exact powers of two, and so is ``sigma_min`` down to
#: ``2**-700 sigma_max`` (far inside ``SPECTRUM_CUTOFF``), up to the
#: rounding of the ``hypot`` in ``abs``.
PLAIN_RANGE = (2.0**-240, 2.0**240)


class _ClosedForm:
    """``sigma_min`` and the Frobenius norm of ``B - z I`` for each block
    ``B`` of a stack of 1 x 1 or 2 x 2 ``blocks`` at each of the (at most
    ``rows``) shifts ``zs`` of a call, as two ``len(zs) x len(blocks)``
    arrays, in closed form (no LAPACK call).

    ``[h - z]`` has both equal to ``|h - z|``. ``[[a, b], [c, d]]`` has ``f
    = ||B - z I||_F^2 = p + q`` (``p``, ``q`` its squared row norms) and
    ``|ad - bc| = sigma_max sigma_min``, and the eigenvalues of ``(B - z
    I)(B - z I)*`` give ``sigma_max^2 = (f + hypot(p - q, 2 |a conj(c) + b
    conj(d)|)) / 2``: a sum of nonnegative terms, where ``(sqrt(f + 2 |ad -
    bc|) + sqrt(f - 2 |ad - bc|)) / 2`` would lose half the digits to
    cancellation when the two singular values are close. So ``sigma_max``
    comes to a few ulps, and ``sigma_min = |ad - bc| / sigma_max`` to a few
    ulps of ``sigma_max``, as from an SVD.

    A (shift, block) pair whose ``f`` lies in ``PLAIN_RANGE`` takes this in
    plain arithmetic, every other pair (chosen pair by pair, so chunking
    never changes a value) :func:`_scaled`, the same formula on the block
    rescaled by a power of two. In range the two agree bit for bit on the
    toy model, whose off-diagonal entries are real, and within 2 ulps on
    any block (bit for bit where ``hypot`` is scale-invariant, as glibc's
    is). An overflowing shifted entry gives an infinite norm (1 x 1) or
    raises :class:`NonFinite` (2 x 2), with no warning. Terms that no shift
    changes are taken once, and every call writes into the same buffers,
    so the arrays that one call returns are overwritten by the next."""

    def __init__(self, blocks: np.ndarray, rows: int):
        self.diagonal = [blocks[:, i, i] for i in range(blocks.shape[1])]
        if len(self.diagonal) == 2:
            self.b, self.c = blocks[:, 0, 1], blocks[:, 1, 0]
            self.b_squared, self.c_squared, self.bc = _squared(self.b), _squared(self.c), self.b * self.c
            shape = (rows, len(blocks))
            # numpy's complex multiply takes twice as long with a broadcast
            # operand, so the factors b and conj(c) fill whole rows
            self.b_rows = np.broadcast_to(self.b, shape).copy()
            self.c_conj_rows = np.broadcast_to(self.c.conj(), shape).copy()
            self.complex = [np.empty(shape, complex) for _ in range(4)]
            self.real = [np.empty(shape) for _ in range(4)]

    def __call__(self, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if len(self.diagonal) == 1:
            s = np.abs(self.diagonal[0] - zs[:, None])  # inf where the entry overflows
            return s, s
        a, d, x, y = (buffer[: len(zs)] for buffer in self.complex)
        p, q, f, t = (buffer[: len(zs)] for buffer in self.real)
        low, high = PLAIN_RANGE
        # every product keeps the operand order of _scaled: numpy's complex
        # multiply fuses a multiply-add, so x * y and y * x can differ
        with np.errstate(all="ignore"):  # the pairs out of range are redone below
            np.subtract(self.diagonal[0], zs[:, None], out=a)
            np.subtract(self.diagonal[1], zs[:, None], out=d)
            np.add(_squared(a, p, t), self.b_squared, out=p)  # |a|^2 + |b|^2
            np.add(self.c_squared, _squared(d, q, t), out=q)  # |c|^2 + |d|^2
            np.add(p, q, out=f)
            rescued = None if low <= f.min() and f.max() <= high else ~((low <= f) & (f <= high))
            np.multiply(self.b_rows[: len(zs)], np.conjugate(d, out=y), out=y)
            np.add(np.multiply(a, self.c_conj_rows[: len(zs)], out=x), y, out=x)  # a conj(c) + b conj(d)
            np.square(np.subtract(p, q, out=p), out=p)
            np.add(p, np.multiply(_squared(x, q, t), 4, out=q), out=p)  # (p - q)^2 + 4 |x|^2
            smax = np.sqrt(np.divide(np.add(f, np.sqrt(p, out=p), out=p), 2, out=p), out=p)
            np.subtract(np.multiply(a, d, out=y), self.bc, out=y)  # ad - bc
            smin = np.divide(np.abs(y, out=q), smax, out=q)
            norm = np.sqrt(f, out=f)
        if rescued is not None:
            block = np.nonzero(rescued)[1]
            smin[rescued], norm[rescued] = _scaled(a[rescued], self.b[block], self.c[block], d[rescued])
        return smin, norm


#: Shifted blocks per call of :class:`_ClosedForm`, whose buffers take 128
#: bytes a 2 x 2 block, 1 MB in all, inside a core's L2 cache. On a
#: two-CPU x86 machine (2 MB of L2 a core) a call cost about 45 us of numpy
#: overhead plus 34 ns a block at 2**13 to 2**14 blocks, and 42 ns a block
#: at 122,000 blocks (15 MB). 600 blocks x 4096 shifts took 120 ms at 2**12
#: blocks a chunk, 96 ms at 2**13 and 92 ms at 2**14. A toy scan of 80
#: blocks x 256 shifts gains little: 2.45-2.48 ms a benchmark toy op at
#: 2**12 against 2.34-2.49 ms at 2**13, whose fresh buffers can cost ~290
#: page faults a scan in a process that runs nothing larger.
CLOSED_FORM_CHUNK = 2**13


def _block_norms(blocks: np.ndarray, zs: np.ndarray, step: int) -> tuple[np.ndarray, np.ndarray]:
    """``sigma_min`` and the norm of all singular values of ``blocks - z I``
    at each shift in ``zs``, ``step`` shifts at a time: for blocks of 1 or
    2 rows from :class:`_ClosedForm` and :func:`~csaop.linalg.column_norms`
    over its block norms, else from one batched SVD and the ``hypot`` of
    its values."""
    smin, norm = np.empty(len(zs)), np.empty(len(zs))
    closed_form = _ClosedForm(blocks, min(step, len(zs))) if blocks.shape[1] <= 2 else None
    for start in range(0, len(zs), step):
        part = slice(start, start + step)
        if closed_form is not None:
            s, norms = closed_form(zs[part])  # per block
            smin[part], norm[part] = s.min(axis=1), column_norms(norms.T)
        else:
            s = np.linalg.svd(_shifted(blocks, zs[part]), compute_uv=False)
            smin[part] = s[..., -1].min(axis=1)
            norm[part] = np.hypot.reduce(s.reshape(len(s), -1), axis=1)
    return smin, norm


@np.errstate(over="ignore")  # an overflowing entry or norm raises NonFinite: _shifted, _scaled, _resolvent
def _smin_and_norm(H: np.ndarray, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``sigma_min(H - z I)`` and ``||H - z I||_F`` at each shift in ``zs``,
    split into parts and chunks as the module docstring tells.

    :func:`~csaop.linalg.direct_sum_blocks` splits ``H != 0`` into
    diagonal blocks, one index array per block size, sizes in the order
    of their first block, which fixes the order of the ``hypot`` over
    the groups. ``sigma_min`` is the least over all blocks and
    ``||H - z I||_F`` the norm of all their singular values, rescaled so
    that it does not overflow or underflow where it is representable. A
    0 x 0 ``H`` is the zero map, of norm 0.
    """
    smin = np.full(len(zs), np.inf)
    frobenius = np.zeros(len(zs))
    for m, index in direct_sum_blocks(H != 0).items():
        blocks = H[index[:, :, None], index[:, None, :]]
        # see CLOSED_FORM_CHUNK and linalg._svd_chunk
        step = max(1, CLOSED_FORM_CHUNK // len(index)) if m <= 2 else _svd_chunk(len(index), m)
        norms = _on_threads(lambda part: _block_norms(blocks, part, step), _scan_parts(m, zs))
        block_min, block_norm = map(np.concatenate, zip(*norms))  # back in shift order
        smin = np.minimum(smin, block_min)
        frobenius = np.hypot(frobenius, block_norm)
    return smin, frobenius


def resolvent_norm(H, z: complex) -> float:
    """Operator norm ``||(H - z I)^{-1}|| = 1 / sigma_min(H - z I)``.

    Returns ``inf`` when ``z`` is numerically in the spectrum and where ``1
    / sigma_min`` overflows (``sigma_min`` below about ``5.6e-309``); raises
    ``ValueError`` for a non-finite ``z`` and :class:`NonFinite` when ``||H
    - z I||_F`` or one of its entries overflows. This is the block scan of
    :func:`pseudospectrum` at the one point ``z`` (closed forms for blocks
    of 1 or 2 rows, an SVD per larger block), on the calling thread (one
    shift makes one part), so the two agree exactly.
    """
    H, z = as_matrix(H, square=True), complex(z)
    if not np.isfinite(z):
        raise ValueError("z must be finite")
    return float(_resolvent(*_smin_and_norm(H, np.array([z])))[0])


def antilinear_eigensystem(
    H, C: AntiunitaryOp, z: complex, tol: Tolerance = DEFAULT_TOL
) -> AntilinearEigenSystem:
    """Solve ``(H - z I) psi = lambda C psi`` for a C-self-adjoint ``H``.

    From one SVD ``M = H - z I = W diag(s) V*``: ``lambda_j = s_j`` ascending
    and ``psi_j`` the fixed vectors of the antiunitary ``J = C^{-1} o U``
    (``U = W V*``) in M's singular subspaces: ``C^{-1} U psi = psi`` is
    ``U psi = C psi``, so ``M psi = U |M| psi = lambda U psi = lambda C
    psi``. ``J`` is applied through the factors, never formed: ``U v_j =
    w_j``, so the columns of ``A^T conj(W)`` are the J-images of ``V``'s,
    which the fixed-basis gates read. Raises
    :class:`ZInSpectrum` exactly where :func:`_in_spectrum` holds (not where
    only ``1 / lambda_1`` overflows), :class:`NonFinite` when ``||H - z
    I||_F`` overflows, ``ValueError`` for a non-finite ``z``,
    :class:`DimMismatch` for a 0 x 0 ``H`` (no lambda_1), and
    :class:`UnsupportedDegeneracy` when a cluster of M's singular values
    (gap ``SVD_CLUSTER_GAP * s[0]``, as in :func:`~csaop.decomp.refined_svd`)
    is degenerate and ``C`` is not involutive: for a C that is neither, two
    lambdas within ``1e-6 ||M||_2`` of each other suffice.
    """
    H, M, W, s, V, _ = _csa_svd(H, C, tol, z, (ValueError, "z must be finite"))
    z, n = complex(z), H.shape[0]
    if n == 0:
        raise DimMismatch("a 0 x 0 H has no antilinear eigenvalues")
    if _in_spectrum(s[-1], np.hypot.reduce(s)):
        raise ZInSpectrum(f"sigma_min(H - zI) = {s[-1]:.3e}; shift z = {z} is in the spectrum")
    A = C.unitary_part
    groups = _singular_clusters(s, C)
    # J v_j = A^T conj(U v_j) = A^T conj(w_j)
    images = A.T @ np.conj(W)
    psis, lambdas = np.empty((n, n), complex), s[::-1]  # ascending
    slack = _fixed_singular_basis(
        s, groups, tol,
        lambda idx, gate: _phase_fixed(V[:, idx], images[:, idx], gate),
        lambda idx, gate: _fixed_involutive(V[:, idx], images[:, idx], gate),
        psis[:, ::-1],
    )
    del W, V, images  # past their last use: the certificate's arrays take their place
    # psi psi* beside the expansion's products (linalg._overlap)
    gram, conj_psis = np.empty((n, n), complex), np.conj(psis)
    _, (image, mapped) = _overlap(n, [_products((gram, psis, conj_psis.T)), lambda: (M @ psis, A @ conj_psis)])
    residuals = _certify(
        "antilinear expansion",
        tol.bound(max(1.0, fro(H)) + float(lambdas[-1])) + slack,
        expansion=fro(np.subtract(image, np.multiply(mapped, lambdas, out=mapped), out=image)),
    )
    residuals |= _certify("basis", tol.bound(1.0), completeness=fro(np.subtract(gram, np.eye(n), out=gram)))
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
    :func:`resolvent_norm` (the toy model meets no SVD; a dense ``H`` is
    one n x n SVD per point), so each norm equals ``resolvent_norm(H, z)``
    exactly. Threads may share the points (module docstring): the norms
    and the mask are bit for bit the same on any CPU count, under the
    caller's numpy error state, and the shifted stacks in flight take
    ~2 MB for a dense n = 120 on two CPUs (``linalg._svd_chunk``).
    Points in the spectrum are in the mask at every ``epsilon``; a point
    outside it whose ``1 / sigma_min`` overflows to ``inf`` is in the mask
    only where ``sigma_min < epsilon``. Raises ``ValueError`` for a bad
    ``epsilon``, a ``resolution`` that is not an integer of at least 2
    (numpy integers are, ``bool`` is not), and for bounds that are not
    finite or whose width overflows.
    """
    if not 0 < epsilon < np.inf:
        raise ValueError("epsilon must be positive and finite")
    if isinstance(resolution, bool) or not isinstance(resolution, (int, np.integer)) or resolution < 2:
        raise ValueError("resolution must be an integer of at least 2")
    H = as_matrix(H, square=True)
    re_min, re_max, im_min, im_max = map(float, bounds)
    if not np.isfinite([re_min, re_max, im_min, im_max]).all():
        raise ValueError("bounds must be finite")
    for axis, width in (("re", re_max - re_min), ("im", im_max - im_min)):
        if abs(width) == np.inf:
            raise ValueError(f"bounds: {axis}_max - {axis}_min overflows")
    res = np.linspace(re_min, re_max, resolution)
    ims = np.linspace(im_min, im_max, resolution)
    zs = (res[None, :] + 1j * ims[:, None]).ravel()

    smin, frobenius = _smin_and_norm(H, zs)
    norms = _resolvent(smin, frobenius)
    # 1 / epsilon is inf below 2**-1024 (a Python float: numpy's warns); an
    # inf norm is z in the spectrum or 1 / smin past the float range
    mask = np.where(
        np.isinf(norms), _in_spectrum(smin, frobenius) | (smin < epsilon), norms > 1.0 / float(epsilon)
    )
    return PseudospectrumGrid(
        epsilon=float(epsilon), zs=zs, resolvent_norms=norms, in_pseudospectrum=mask
    )
