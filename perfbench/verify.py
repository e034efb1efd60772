"""Independent checks of csaop results against the paper's identities.

Every check recomputes what it needs with plain numpy (its own SVDs, its
own polar isometry) and never calls back into csaop's numerical code, so a
wrong result cannot certify itself. Checks run outside the timed region.
A failed identity raises :class:`Mismatch`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

#: Relative tolerance of the identity checks. The library certifies its
#: own residuals at 1e-10; a corrupted factor misses this by far.
TOL = 1e-8

#: Relative agreement required between a scanned resolvent norm and the
#: per-point SVD taken here.
PSEUDO_TOL = 1e-10

#: Relative singular-value gap below which the library treats values as
#: one cluster (decomp.SVD_CLUSTER_GAP); vectors inside such a cluster may
#: mix, which this check allows for as the library does.
CLUSTER_GAP = 1e-6

#: sigma_min at or below this fraction of ||H - zI|| means z is in the
#: spectrum (antieig.SPECTRUM_CUTOFF).
SPECTRUM_CUTOFF = 1e-12


class Mismatch(Exception):
    """A result failed one of the benchmark's identity checks."""


@dataclass(frozen=True)
class Op:
    """One timed call into csaop.

    ``call`` runs the operation. Either ``check`` verifies its result
    (raising :class:`Mismatch`), or ``expect`` names the exact
    ``CsaopError`` subclass the call must raise.
    """

    name: str
    call: Callable[[], object]
    check: Callable[[object], None] | None = None
    expect: type[BaseException] | None = None


def judge(op: Op, result, error: BaseException | None) -> str | None:
    """Why the op is unverified, or ``None`` when it passed."""
    if op.expect is not None:
        if error is None:
            return f"expected {op.expect.__name__}, got a result"
        if type(error) is not op.expect:
            return f"expected {op.expect.__name__}, got {type(error).__name__}: {error}"
        return None
    if error is not None:
        return f"raised {type(error).__name__}: {error}"
    try:
        op.check(result)
    except Mismatch as exc:
        return str(exc)
    except (ValueError, TypeError, KeyError, IndexError, AttributeError, OSError) as exc:
        return f"malformed result: {type(exc).__name__}: {exc}"
    return None


def need(ok, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def _fro(M) -> float:
    return float(np.linalg.norm(M))


def _finite(M, what: str) -> np.ndarray:
    M = np.asarray(M)
    need(np.all(np.isfinite(M)), f"{what} has non-finite entries")
    return M


def check_csa(H, A) -> None:
    """``C H C^-1 = H*`` for ``C = A o K``, i.e. ``A conj(H) A* = H*``."""
    H = _finite(H, "H")
    need(H.shape == A.shape, f"H has shape {H.shape}, expected {A.shape}")
    scale = _fro(H)
    need(scale > 0, "H is zero")
    residual = _fro(A @ H.conj() @ A.conj().T - H.conj().T)
    need(residual <= TOL * scale, f"C-self-adjointness residual {residual:.3e}")


def _own_polar(H):
    """Nonzero singular values, polar isometry and |H| from one SVD.

    Cached by content: a workload checks the same inputs on every pass.
    """
    key = (H.shape, hashlib.sha1(np.ascontiguousarray(H).tobytes()).digest())
    if key not in _POLAR_CACHE:
        W, s, Vh = np.linalg.svd(H)
        keep = s > 1e-10 * s[0]
        _POLAR_CACHE[key] = s[keep], W[:, keep] @ Vh[keep], (Vh.conj().T * s) @ Vh
    return _POLAR_CACHE[key]


_POLAR_CACHE: dict = {}


def check_polar(H, A, absH, U, J) -> None:
    """``H = C^-1 J |H|`` with ``J = C o U`` commuting with ``|H|``."""
    absH, U, J = (_finite(M, name) for M, name in ((absH, "|H|"), (U, "U"), (J, "J")))
    n = H.shape[0]
    scale = max(1.0, _fro(H))
    _, U0, absH0 = _own_polar(H)
    need(_fro(absH - absH0) <= TOL * scale, "|H| differs from the SVD's")
    need(_fro(U - U0) <= TOL * np.sqrt(n), "U differs from the polar isometry")
    need(_fro(J - A @ U0.conj()) <= TOL * np.sqrt(n), "J is not C o U")
    need(_fro(H - A.T @ J.conj() @ absH) <= TOL * scale, "H != C^-1 J |H|")
    need(_fro(J @ absH.conj() - absH @ J) <= TOL * scale, "J does not commute with |H|")


def check_refined_svd(H, A, sigmas, phis, etas) -> None:
    """Reconstruction of H and H*, ``J phi = phi``, ``eta = C^-1 phi``,
    orthonormal ``phi`` and the singular values of the SVD."""
    sigmas, phis, etas = (_finite(M, name) for M, name in ((sigmas, "sigmas"), (phis, "phis"), (etas, "etas")))
    s0, U0, absH0 = _own_polar(H)
    k = len(s0)
    need(sigmas.shape == (k,), f"{sigmas.shape[0]} singular values, expected {k}")
    need(np.max(np.abs(sigmas - s0)) <= TOL * s0[0], "singular values differ from the SVD's")
    need(phis.shape == (H.shape[0], k) and etas.shape == phis.shape, "factor shapes")
    scale = max(1.0, _fro(H))
    need(_fro(phis.conj().T @ phis - np.eye(k)) <= TOL * np.sqrt(k), "phis not orthonormal")
    need(_fro(etas - A.T @ phis.conj()) <= TOL * np.sqrt(k), "etas != C^-1 phis")
    need(_fro(A @ U0.conj() @ phis.conj() - phis) <= TOL * np.sqrt(k), "J phi != phi")
    need(_fro(absH0 @ phis - phis * sigmas) <= TOL * scale, "phis are not eigenvectors of |H|")
    need(_fro(H - (etas * sigmas) @ phis.conj().T) <= TOL * scale, "H not reconstructed")
    need(
        _fro(H.conj().T - (phis * sigmas) @ etas.conj().T) <= TOL * scale,
        "H* not reconstructed",
    )


def check_eigensystem(H, A, z: complex, z_out: complex, lambdas, psis) -> None:
    """``(H - zI) psi = lambda C psi``, lambda ascending, orthonormal
    complete ``psi`` and ``||R(z)|| = 1/lambda_1`` against an own SVD."""
    lambdas, psis = _finite(lambdas, "lambdas"), _finite(psis, "psis")
    n = H.shape[0]
    need(complex(z_out) == complex(z), f"shift {z_out} returned for {z}")
    need(lambdas.shape == (n,) and psis.shape == (n, n), "eigensystem shapes")
    M = H - z * np.eye(n)
    s = np.linalg.svd(M, compute_uv=False)
    need(np.all(np.diff(lambdas) >= 0) and lambdas[0] > 0, "lambdas not positive ascending")
    need(np.max(np.abs(lambdas - s[::-1])) <= TOL * s[0], "lambdas differ from 1/sigma(R)")
    need(abs(1.0 / lambdas[0] - 1.0 / s[-1]) <= TOL / s[-1], "||R(z)|| != 1/lambda_1")
    need(_fro(psis.conj().T @ psis - np.eye(n)) <= TOL * np.sqrt(n), "psis not orthonormal")
    sig = 1.0 / lambdas
    close = np.abs(np.diff(sig)) <= CLUSTER_GAP * sig[0]
    slack = float(np.max(np.abs(np.diff(lambdas))[close], initial=0.0))
    bound = TOL * (_fro(M) + lambdas[-1] * np.sqrt(n)) + 2.0 * slack * np.sqrt(n)
    residual = _fro(M @ psis - (A @ psis.conj()) * lambdas)
    need(residual <= bound, f"antilinear eigen-residual {residual:.3e}")


def grid_points(bounds, resolution: int) -> np.ndarray:
    """Grid of ``pseudospectrum``: imaginary part varying slowest."""
    re_min, re_max, im_min, im_max = bounds
    res = np.linspace(re_min, re_max, resolution)
    ims = np.linspace(im_min, im_max, resolution)
    return (res[None, :] + 1j * ims[:, None]).ravel()


def check_pseudospectrum(H, epsilon, bounds, resolution, zs, norms, mask, sample) -> None:
    """Grid layout, membership mask, and resolvent norms at the sampled
    points against a per-point SVD."""
    zs, mask = np.asarray(zs), np.asarray(mask, dtype=bool)
    norms = np.asarray(norms, dtype=float)
    expected = grid_points(bounds, resolution)
    need(zs.shape == expected.shape, f"{zs.size} grid points, expected {expected.size}")
    need(np.max(np.abs(zs - expected)) <= 1e-12 * (1 + np.max(np.abs(expected))), "grid layout")
    need(np.array_equal(mask, norms > 1.0 / epsilon), "mask disagrees with the norms")
    n = H.shape[0]
    for j in sample:
        M = H - zs[j] * np.eye(n)
        smin = np.linalg.svd(M, compute_uv=False)[-1]
        if smin <= SPECTRUM_CUTOFF * _fro(M):
            need(norms[j] == np.inf, f"point {j} is in the spectrum")
            own = np.inf
        else:
            own = 1.0 / smin
            need(abs(norms[j] - own) <= PSEUDO_TOL * own, f"resolvent norm at point {j}")
        need(bool(mask[j]) == bool(own > 1.0 / epsilon), f"membership at point {j}")


def check_pauli(H, A, alpha: float, k_grid) -> None:
    """Block-diagonal symbol ``[[k^2, k], [alpha k, k^2]]`` per momentum,
    and C2-self-adjointness."""
    H = _finite(H, "H")
    need(H.shape == (2 * len(k_grid),) * 2, "toy-model dimension")
    blocks = np.zeros_like(H)
    for j, k in enumerate(k_grid):
        blocks[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = [[k * k, k], [alpha * k, k * k]]
    need(np.array_equal(H, blocks), "toy-model blocks differ from the symbol")
    check_csa(H, A)
