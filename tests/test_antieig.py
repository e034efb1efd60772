import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from csaop import (
    UnsupportedDegeneracy,
    ZInSpectrum,
    antilinear_eigensystem,
    generate_csa,
    pseudospectrum,
    resolvent_norm,
)
from csaop import DimMismatch, NonFinite, NotCsa, antieig, decomp, linalg
from csaop.antieig import CLOSED_FORM_CHUNK, SPECTRUM_CUTOFF
from csaop.antiunitary import AntiunitaryOp
from csaop.decomp import SVD_CLUSTER_GAP
from csaop.linalg import DEFAULT_TOL, THREAD_MIN_BLOCK, fro
from csaop import pauli
from csaop.pauli import MINUS_I_SIGMA2

from conftest import (
    c2_blocks,
    conj_k,
    connected_components,
    haar_unitary,
    neither_simple_case,
    overflowing_diagonal,
    random_complex_symmetric,
    random_matrix,
)


class TestAntilinearEigensystem:
    def test_empty_matrix_is_dim_mismatch(self):
        # a 0x0 H has no lambda_1
        with pytest.raises(DimMismatch):
            antilinear_eigensystem(np.zeros((0, 0)), AntiunitaryOp(np.zeros((0, 0))), 1.0)

    def test_scalar_case(self):
        system = antilinear_eigensystem(np.array([[3.0]]), conj_k(1), 1.0)
        np.testing.assert_allclose(system.lambdas, [2.0])
        # (3 - 1) * psi = 2 * conj(psi) for real unit psi
        psi = system.psis[:, 0]
        np.testing.assert_allclose(2.0 * psi, 2.0 * np.conj(psi), atol=1e-12)

    def test_real_diagonal(self):
        system = antilinear_eigensystem(np.diag([1.0, 4.0]), conj_k(2), 0.0)
        np.testing.assert_allclose(system.lambdas, [1.0, 4.0])
        np.testing.assert_allclose(np.abs(system.psis), np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("z", [3j, 2 + 1j])
    @pytest.mark.parametrize("dim", [4, 8])
    def test_complex_symmetric_random(self, dim, z, rng):
        H = random_complex_symmetric(dim, rng)
        C = conj_k(dim)
        system = antilinear_eigensystem(H, C, z)
        assert np.all(np.diff(system.lambdas) >= 0) and np.all(system.lambdas > 0)
        # defining relation, column by column
        for lam, psi in zip(system.lambdas, system.psis.T):
            lhs = (H - z * np.eye(dim)) @ psi
            assert np.linalg.norm(lhs - lam * C.apply(psi)) <= 1e-8 * (lam + fro(H))
        # orthonormal and complete
        assert fro(system.psis.conj().T @ system.psis - np.eye(dim)) <= 1e-10
        assert fro(system.psis @ system.psis.conj().T - np.eye(dim)) <= 1e-8
        # operator norm of the resolvent equals 1/lambda_1
        rnorm = resolvent_norm(H, z)
        assert abs(rnorm - 1.0 / system.lambdas[0]) <= 1e-8 * rnorm

    @pytest.mark.parametrize("small", [1e-10, 1e-11, 2e-12])
    def test_shift_near_spectrum(self, small):
        # sigma_min / sigma_max of H - zI is at most 1e-10, yet z is outside
        # the spectrum: every singular value of the resolvent must be kept
        system = antilinear_eigensystem(np.diag([1.0, small]), conj_k(2), 0.0)
        np.testing.assert_allclose(system.lambdas, [small, 1.0], rtol=1e-10)

    def test_shift_in_spectrum_rejected(self):
        H = np.diag([1.0, 2.0])
        with pytest.raises(ZInSpectrum):
            antilinear_eigensystem(H, conj_k(2), 1.0)

    @pytest.mark.parametrize("z", [complex(np.nan, 0), complex(np.inf, 0), complex(0, -np.inf)])
    def test_non_finite_shift_rejected(self, z):
        with pytest.raises(ValueError, match="z must be finite"):
            antilinear_eigensystem(np.diag([1.0, 4.0]), conj_k(2), z)

    def test_csa_check_comes_before_the_shift_check(self):
        with pytest.raises(NotCsa):
            antilinear_eigensystem(np.array([[0.0, 1.0], [0.0, 0.0]]), conj_k(2), complex(np.nan, 0))

    def test_degeneracy_propagates(self):
        C = AntiunitaryOp(MINUS_I_SIGMA2)
        with pytest.raises(UnsupportedDegeneracy):
            antilinear_eigensystem(2.0 * np.eye(2), C, 5.0)


def _takagi_pair(sigmas, seed):
    """Involutive ``C = (V V^T) o K`` and ``H = V Q diag(sigmas) Q^T V*`` for
    Haar V, Q: H is C-self-adjoint with singular values ``sigmas``."""
    rng = np.random.default_rng(seed)
    n = len(sigmas)
    V, Q = haar_unitary(n, rng), haar_unitary(n, rng)
    return V @ (Q * sigmas) @ Q.T @ V.conj().T, AntiunitaryOp(V @ V.T)


class TestNearSpectrum:
    """Shifts a distance delta from an eigenvalue, sigma_min(H - zI) ~ delta,
    far above ``SPECTRUM_CUTOFF``: clustering 1 / lambda at a gap relative to
    its largest value 1 / sigma_min lumps the large lambdas together."""

    @pytest.mark.parametrize("delta", [1e-4, 1e-7])
    @pytest.mark.parametrize("cluster", [0, 8])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_expansion_at_arithmetic_precision(self, seed, cluster, delta):
        n = 64
        simple = 1.0 + (np.arange(n - cluster) + 0.5) / (n - cluster)
        H, C = _takagi_pair(np.concatenate([np.full(cluster, 1.5), simple]), seed)
        eigenvalues = np.linalg.eigvals(H)
        z = eigenvalues[np.argmin(np.abs(eigenvalues - 1.2))] + delta * (1 + 1j)
        M = H - z * np.eye(n)
        s = np.linalg.svd(M, compute_uv=False)
        assert 0.1 * delta <= s[-1] <= 10 * delta
        system = antilinear_eigensystem(H, C, z)
        np.testing.assert_allclose(system.lambdas, s[::-1], rtol=1e-12, atol=0)
        A = C.unitary_part
        assert fro(M @ system.psis - (A @ np.conj(system.psis)) * system.lambdas) <= 1e-12 * fro(M)
        assert system.residuals["expansion"] <= 1e-12 * fro(M)


def _chained(seed):
    """``H = Q diag(sigma) Q^T`` for Haar Q at n = 64, K-self-adjoint: sixteen
    singular values chained at steps of 0.9e-6, below the cluster gap
    ``SVD_CLUSTER_GAP * sigma_max`` (2e-6 to 5e-6), form one cluster of
    width 1.35e-5 beside 48 values in [2, 5]."""
    rng = np.random.default_rng(seed)
    Q = haar_unitary(64, rng)
    return (Q * np.concatenate([1.0 + 0.9e-6 * np.arange(16), rng.uniform(2, 5, 48)])) @ Q.T


def _resolvent_route(H, C, z):
    """The eigensystem from the refined SVD of ``R(z) = (H - zI)^{-1}``:
    ``lambda = 1 / sigma(R)``, ascending as sigma(R) descends, and
    ``psi = C^{-1} phi``."""
    expansion = decomp.refined_svd(np.linalg.inv(H - z * np.eye(len(H))), C)
    return 1.0 / expansion.sigmas, expansion.etas


_FAR_SHIFTS = [3j, -3.0, 3.0 * np.exp(0.25j * np.pi)]


class TestResolventOracle:
    """At shifts with |z| = 3, away from the spectrum, the one-SVD
    eigensystem reproduces the resolvent route it replaced."""

    @pytest.mark.parametrize("z", _FAR_SHIFTS)
    @pytest.mark.parametrize("seed", [3, 4])
    def test_involutive_simple(self, seed, z):
        H, C = _takagi_pair(1.0 + np.arange(24) / 24, seed)
        lambdas, psis = _resolvent_route(H, C, z)
        system = antilinear_eigensystem(H, C, z)
        np.testing.assert_allclose(system.lambdas, lambdas, rtol=1e-12)
        overlaps = np.abs(np.sum(np.conj(psis) * system.psis, axis=0))
        np.testing.assert_allclose(overlaps, 1.0, atol=1e-10)

    @pytest.mark.parametrize("z", _FAR_SHIFTS)
    def test_involutive_clusters(self, z, rng):
        # normal H = O diag(d) O^T with real orthogonal O and eigenvalues
        # of multiplicity 4 and 3: H - zI has singular values of the same
        # multiplicities, where only the cluster's subspace is determined
        n = 12
        O = np.linalg.qr(rng.standard_normal((n, n)))[0]
        d = np.concatenate([np.full(4, 1.0 + 0.5j), np.full(3, -0.5), rng.uniform(-1, 1, 5) + 0.3j])
        H = O @ np.diag(d) @ O.T
        lambdas, psis = _resolvent_route(H, conj_k(n), z)
        system = antilinear_eigensystem(H, conj_k(n), z)
        np.testing.assert_allclose(system.lambdas, lambdas, rtol=1e-12)
        for value in (1.0 + 0.5j, -0.5):
            cluster = np.abs(lambdas - abs(value - z)) <= 1e-12
            assert np.count_nonzero(cluster) == np.count_nonzero(d == value)
            old, new = psis[:, cluster], system.psis[:, cluster]
            assert fro(old @ old.conj().T - new @ new.conj().T) <= 1e-10

    @pytest.mark.parametrize("z", _FAR_SHIFTS)
    @pytest.mark.parametrize("make", [
        lambda: neither_simple_case(2, 6, 2),  # C^2 is not I on ker H
        lambda: (generate_csa(c2_blocks(8), 5), c2_blocks(8)),
    ])
    def test_non_involutive_rejected_by_both(self, make, z):
        # H - zI commutes with C^2 != I, which pairs its singular values
        H, C = make()
        with pytest.raises(UnsupportedDegeneracy):
            _resolvent_route(H, C, z)
        with pytest.raises(UnsupportedDegeneracy):
            antilinear_eigensystem(H, C, z)


class TestOneSvd:
    def test_no_polar_factors_no_composition(self, monkeypatch):
        counts = {"svd": 0, "J": 0, "compose_antilinear": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        H, C = _takagi_pair(np.concatenate([np.full(4, 1.5), 1.0 + np.arange(12) / 12]), 5)
        monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
        # the map whose fixed vectors are the psi_j is applied through the
        # SVD factors, never built as an n x n matrix
        monkeypatch.setattr(decomp, "AntilinearMap", counted("J", decomp.AntilinearMap))
        monkeypatch.setattr(
            decomp, "compose_antilinear", counted("compose_antilinear", decomp.compose_antilinear)
        )
        system = antilinear_eigensystem(H, C, 0.5j)
        assert counts == {"svd": 1, "J": 0, "compose_antilinear": 0}
        assert set(system.residuals) == {"expansion", "completeness"}


def _near_shift(H):
    """A shift ``1e-4 (1 + i)`` from the eigenvalue of ``H`` nearest 1.2."""
    eigenvalues = np.linalg.eigvals(H)
    return eigenvalues[np.argmin(np.abs(eigenvalues - 1.2))] + 1e-4 * (1 + 1j)


class TestFixedByTheFormedMap:
    """The map the eigensystem applies through its SVD factors, formed here
    as the n x n ``J = A^T conj(W V*)`` from an SVD of ``H - z I`` taken
    apart from the library: every ``psi_j`` is J-fixed within the bound
    the expansion was certified with."""

    @pytest.mark.parametrize("make, shift", [
        (lambda: _takagi_pair(1.0 + np.arange(24) / 24, 3), lambda H: 3j),
        (lambda: _takagi_pair(np.concatenate([np.full(64, 1.5), 1.0 + (np.arange(192) + 0.5) / 192]), 0), lambda H: 3j),
        (lambda: (_chained(0), conj_k(64)), lambda H: 0.5j),
        (lambda: _takagi_pair(np.concatenate([np.full(8, 1.5), 1.0 + (np.arange(56) + 0.5) / 56]), 1), _near_shift),
    ], ids=["simple", "cluster64-n256", "chained", "near-spectrum"])
    def test_psis_are_fixed(self, make, shift, monkeypatch):
        bounds = {}

        def spy(what, bound, **residuals):
            bounds.update(dict.fromkeys(residuals, bound))
            return decomp._certify(what, bound, **residuals)

        monkeypatch.setattr(antieig, "_certify", spy)
        H, C = make()
        z = shift(H)
        W, s, Vh = np.linalg.svd(H - z * np.eye(len(H)))
        system = antilinear_eigensystem(H, C, z)
        J = C.unitary_part.T @ np.conj(W @ Vh)
        assert fro(J @ np.conj(system.psis) - system.psis) <= bounds["expansion"]
        assert (s[-1] < 1e-3) == (shift is _near_shift)


class TestResiduals:
    @pytest.mark.parametrize("H, z", [
        (np.diag([1.0, 4.0]), 0.0),
        (np.diag([1.0, 1.0 + 1e-9, 1.0 - 1e-9, 4.0, 4.0 + 1e-10]), 0.5j),  # clusters in R(z)
        (generate_csa(conj_k(16), 4), 0.3 + 0.2j),
        # near the spectrum: lambdas 1e-3 and 1e-3 + 1e-6 share a cluster
        # of H - zI, while 1 / lambda would split them
        (np.diag([0.0, 1e-3, 1e-3 + 1e-6, 5.0]), 1e-5j),
        # a chained cluster: mixing costs its width, far more than one step
        (_chained(0), 0.0),
    ])
    def test_are_the_certified_expressions(self, H, z, monkeypatch):
        bounds = {}

        def spy(what, bound, **residuals):
            bounds.update(dict.fromkeys(residuals, bound))
            return decomp._certify(what, bound, **residuals)

        monkeypatch.setattr(antieig, "_certify", spy)
        H = np.asarray(H, dtype=complex)
        n = H.shape[0]
        C = conj_k(n)
        system = antilinear_eigensystem(H, C, z)
        lambdas, psis = system.lambdas, system.psis
        M = H - z * np.eye(n)
        assert system.residuals == {
            "expansion": fro(M @ psis - (C.unitary_part @ np.conj(psis)) * lambdas),
            "completeness": fro(psis @ psis.conj().T - np.eye(n)),
        }
        # the slack is the widest cluster's width, clustered here
        # independently of the library
        breaks = np.flatnonzero(np.diff(lambdas) > SVD_CLUSTER_GAP * lambdas[-1]) + 1
        width = max(cluster[-1] - cluster[0] for cluster in np.split(lambdas, breaks))
        bound = DEFAULT_TOL.bound(max(1.0, fro(H)) + lambdas[-1]) + 2.0 * width * np.sqrt(n)
        assert bounds == {"expansion": bound, "completeness": DEFAULT_TOL.bound(1.0)}
        assert all(system.residuals[name] <= bounds[name] for name in bounds)
        decomp.refined_svd(H, C)  # the refined SVD of the same H is certified too


class TestHugeNorms:
    """At t = 1e160, ||H - zI||_F^2 overflows; results must scale with t."""

    t = 1e160

    def test_eigensystem(self):
        G, K = generate_csa(conj_k(4), 3), conj_k(4)
        system = antilinear_eigensystem(self.t * G, K, self.t * 0.5j)
        reference = antilinear_eigensystem(G, K, 0.5j)
        np.testing.assert_allclose(system.lambdas / self.t, reference.lambdas, rtol=1e-12)
        assert system.residuals["completeness"] <= DEFAULT_TOL.bound(1.0)

    def test_resolvent_norm(self):
        G = generate_csa(conj_k(4), 3)
        huge = resolvent_norm(self.t * G, self.t * 0.5j)
        assert huge * self.t == pytest.approx(resolvent_norm(G, 0.5j), rel=1e-12)

    def test_pseudospectrum(self):
        G = generate_csa(conj_k(4), 3)
        t = self.t
        grid = pseudospectrum(t * G, 0.5 * t, (-2 * t, 2 * t, -2 * t, 2 * t), 4)
        reference = pseudospectrum(G, 0.5, (-2, 2, -2, 2), 4)
        assert np.all(np.isfinite(reference.resolvent_norms))
        np.testing.assert_allclose(grid.resolvent_norms * t, reference.resolvent_norms, rtol=1e-12)
        np.testing.assert_array_equal(grid.in_pseudospectrum, reference.in_pseudospectrum)


class TestScaleMap:
    """ROADMAP item 4's map ``H -> tH``, ``z -> tz`` over the eigensystem,
    for a complex symmetric H with C = K and z within 1e-9 of an eigenvalue
    (sigma_min / ||H - z I||_F about 1.5e-10, above ``SPECTRUM_CUTOFF``).
    At t <= 1e-300, ``1 / lambda_1`` overflows; z stays outside the
    spectrum, and the eigenvalue itself stays inside it."""

    TS = [1e300, 1e100, 1.0, 1e-100, 1e-290, 1e-300, 1e-305]

    @staticmethod
    def pair():
        H = random_complex_symmetric(4, np.random.default_rng(0))
        return H, np.linalg.eigvals(H)[0]

    @pytest.mark.parametrize("t", TS)
    def test_near_shift_returns_at_every_scale(self, t):
        H, eigenvalue = self.pair()
        z = eigenvalue + 1e-9
        reference = antilinear_eigensystem(H, conj_k(4), z).lambdas
        assert SPECTRUM_CUTOFF < reference[0] / np.hypot.reduce(reference) < 1e-9
        system = antilinear_eigensystem(t * H, conj_k(4), t * z)
        assert np.max(np.abs(system.lambdas / t - reference)) <= 1e-14 * fro(H)

    @pytest.mark.parametrize("t", TS)
    def test_eigenvalue_is_in_the_spectrum_at_every_scale(self, t):
        H, eigenvalue = self.pair()
        with pytest.raises(ZInSpectrum):
            antilinear_eigensystem(t * H, conj_k(4), t * eigenvalue)


def _huge_pair(norm):
    """Involutive Haar C at n = 6 and a C-self-adjoint H with ||H||_F = norm."""
    rng = np.random.default_rng(6)
    U = haar_unitary(6, rng)
    C = AntiunitaryOp(U @ U.T)
    G = generate_csa(C, 6)
    return G * (norm / fro(G)), C


class TestOverflowingShiftNorm:
    """||H - zI||_F overflows while ||H||_F does not, so no cutoff can be
    read off it: the one spectrum rule raises NonFinite in all three entry
    points. In the 1x1 case LAPACK returns sigma = NaN."""

    @pytest.fixture(params=["n6", "1x1"])
    def case(self, request):
        if request.param == "n6":
            H, C = _huge_pair(1.79e308)
            return H, C, 0.5j * 1.79e308
        return np.array([[1.5e308]]), conj_k(1), 1.5e308j

    def test_eigensystem(self, case):
        H, C, z = case
        with pytest.raises(NonFinite, match="overflows"):
            antilinear_eigensystem(H, C, z)

    def test_resolvent_norm(self, case):
        H, _, z = case
        with pytest.raises(NonFinite, match="overflows"):
            resolvent_norm(H, z)

    def test_pseudospectrum(self, case):
        H, _, z = case
        with pytest.raises(NonFinite, match="overflows"):
            pseudospectrum(H, 0.1, (-1.0, 1.0, 0.9 * z.imag, z.imag), 2)

    def test_representable_norm_still_solves(self):
        H, C = _huge_pair(1e300)
        z = 0.5j * 1e300
        system = antilinear_eigensystem(H, C, z)
        assert resolvent_norm(H, z) == pytest.approx(1.0 / system.lambdas[0], rel=1e-10)


class TestResolventNorm:
    def test_scalar(self):
        assert resolvent_norm(np.array([[3.0]]), 1.0) == pytest.approx(0.5)

    def test_zero_operator(self):
        assert resolvent_norm(np.zeros((1, 1)), 2.0) == pytest.approx(0.5)

    def test_jordan_block_near_zero(self):
        H = np.array([[0.0, 1.0], [0.0, 0.0]])
        z = 1e-3
        # independent oracle: smallest singular value of H - zI
        sigma = np.linalg.svd(H - z * np.eye(2), compute_uv=False)
        assert resolvent_norm(H, z) == pytest.approx(1.0 / sigma[-1])

    def test_infinity_on_spectrum(self):
        assert resolvent_norm(np.diag([1.0, 2.0]), 2.0) == np.inf

    @pytest.mark.parametrize("z", [np.nan, np.inf, complex(0, np.nan)])
    def test_non_finite_shift_rejected(self, z):
        with pytest.raises(ValueError, match="z must be finite"):
            resolvent_norm(np.diag([1.0, 2.0]), z)


class TestPseudospectrum:
    def test_zero_operator_disk(self):
        grid = pseudospectrum(np.zeros((1, 1)), 0.5, (-1, 1, -1, 1), 41)
        # ||R(z)|| = 1/|z|, so membership is exactly |z| < 0.5
        expected = np.abs(grid.zs) < 0.5
        np.testing.assert_array_equal(grid.in_pseudospectrum, expected)

    def test_normal_matrix_is_union_of_disks(self):
        H = np.diag([1.0, 2.0])
        # resolution chosen so no grid point lands within 1e-9 of a disk rim
        grid = pseudospectrum(H, 0.1, (0.0, 3.0, -1.0, 1.0), 60)
        dist = np.minimum(np.abs(grid.zs - 1.0), np.abs(grid.zs - 2.0))
        off_rim = np.abs(dist - 0.1) > 1e-9
        np.testing.assert_array_equal(
            grid.in_pseudospectrum[off_rim], (dist < 0.1)[off_rim]
        )

    def test_nonnormal_exceeds_normal_growth(self):
        # a Jordan block inflates the pseudospectrum beyond the eps-disk
        # around its (only) eigenvalue 0
        bounds = (-1.0, 1.0, -1.0, 1.0)
        grid = pseudospectrum(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.1, bounds, 81)
        disk_count = int(np.count_nonzero(np.abs(grid.zs) < 0.1))
        assert int(np.count_nonzero(grid.in_pseudospectrum)) > disk_count

    def test_monotone_in_epsilon(self, rng):
        H = random_complex_symmetric(4, rng)
        bounds = (-2.0, 2.0, -2.0, 2.0)
        small = pseudospectrum(H, 0.05, bounds, 25)
        large = pseudospectrum(H, 0.2, bounds, 25)
        assert np.all(large.in_pseudospectrum[small.in_pseudospectrum])

    def test_spectrum_always_inside(self, rng):
        H = random_complex_symmetric(5, rng)
        for lam in np.linalg.eigvals(H):
            for eps in (1e-3, 1e-6, 1e-9):
                assert resolvent_norm(H, lam) > 1.0 / eps

    def test_deterministic(self, rng):
        H = random_complex_symmetric(3, rng)
        a = pseudospectrum(H, 0.1, (-1, 1, -1, 1), 13)
        b = pseudospectrum(H, 0.1, (-1, 1, -1, 1), 13)
        np.testing.assert_array_equal(a.resolvent_norms, b.resolvent_norms)
        np.testing.assert_array_equal(a.in_pseudospectrum, b.in_pseudospectrum)

    def test_point_count_and_order(self):
        grid = pseudospectrum(np.zeros((1, 1)), 1.0, (0.0, 1.0, 0.0, 2.0), 3)
        assert len(grid.zs) == 9
        # imaginary part varies slowest
        np.testing.assert_allclose(grid.zs[:3].imag, 0.0)
        np.testing.assert_allclose(grid.zs[:3].real, [0.0, 0.5, 1.0])
        np.testing.assert_allclose(grid.zs[-3:].imag, 2.0)

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            pseudospectrum(np.eye(2), -1.0, (-1, 1, -1, 1), 10)
        with pytest.raises(ValueError):
            pseudospectrum(np.eye(2), 0.1, (-1, 1, -1, 1), 1)
        for bounds in [(np.nan, 1, -1, 1), (-1, 1, -1, np.inf)]:
            with pytest.raises(ValueError, match="bounds must be finite"):
                pseudospectrum(np.eye(2), 0.1, bounds, 10)

    @pytest.mark.parametrize(
        "bounds, axis", [((-1.7e308, 1.7e308, 0, 1), "re"), ((0, 1, 1.7e308, -1.7e308), "im")], ids=["re", "im"]
    )
    def test_window_wider_than_the_float_range(self, bounds, axis):
        # before, linspace warned and made the first point NaN, and the scan raised NonFinite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"{axis}_max - {axis}_min overflows"):
                pseudospectrum(np.zeros((1, 1)), 0.1, bounds, 2)

    def test_widest_finite_window_is_scanned(self):
        # width 1.7e308 is still a float: its ends are grid points
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = pseudospectrum(np.zeros((1, 1)), 0.1, (-0.85e308, 0.85e308, 0, 1), 2)
        assert grid.zs.real.tolist() == [-0.85e308, 0.85e308] * 2


def _block_diagonal(*blocks):
    n = sum(len(B) for B in blocks)
    H, start = np.zeros((n, n), dtype=complex), 0
    for B in blocks:
        H[start : start + len(B), start : start + len(B)] = B
        start += len(B)
    return H


def _direct_sum_fixture(rng):
    """Block-diagonal H with dense blocks of sizes 1, 2, 3 and 5, a 2x2
    zero block and a 2x2 Jordan block at 0, under a random permutation."""
    blocks = [rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)) for m in (1, 2, 3, 5)]
    blocks += [np.zeros((2, 2)), np.array([[0.0, 1.0], [0.0, 0.0]])]
    H = _block_diagonal(*blocks)
    perm = rng.permutation(len(H))
    return H[np.ix_(perm, perm)], perm


def dense_resolvent_norm(H, z):
    """Reference for the block kernel: one SVD of the whole H - zI."""
    M = H - z * np.eye(H.shape[0])
    s = np.linalg.svd(M, compute_uv=False)
    smin = float(s[-1]) if len(s) else 0.0
    if smin <= SPECTRUM_CUTOFF * fro(M):
        return float("inf")
    return 1.0 / smin


class TestBlockScan:
    """The scan runs per diagonal block; the oracle is one SVD of the
    whole H - zI per point (``dense_resolvent_norm``)."""

    def _cases(self, rng):
        H, _ = _direct_sum_fixture(rng)
        toy, _, _ = pauli.discretize(-1.5, np.linspace(-3.0, 3.0, 20))
        # an odd resolution puts z = 0, in the spectrum of H, on the grid
        return [(H, 0.1, (-2.0, 2.0, -2.0, 2.0), 21, True), (toy, 0.1, (-1.0, 10.0, -4.5, 4.5), 16, False)]

    def test_matches_full_svd(self, rng):
        for H, eps, bounds, res, hits_spectrum in self._cases(rng):
            grid = pseudospectrum(H, eps, bounds, res)
            oracle = np.array([dense_resolvent_norm(H, z) for z in grid.zs])
            inf = np.isinf(oracle)
            assert inf.any() == hits_spectrum
            np.testing.assert_array_equal(np.isinf(grid.resolvent_norms), inf)
            finite = grid.resolvent_norms[~inf]
            assert np.max(np.abs(finite - oracle[~inf]) / oracle[~inf]) <= 1e-10
            np.testing.assert_array_equal(grid.in_pseudospectrum, oracle > 1.0 / eps)

    def test_spectrum_cutoff_sees_every_block(self):
        # sigma_min(H) = 1e-7 falls below 1e-12 ||H||_F only through the
        # norm of the other, large block
        H = np.zeros((3, 3))
        H[:2, :2] = [[1e6, 2e6], [0.0, 1e6]]
        H[2, 2] = 1e-7
        grid = pseudospectrum(H, 0.1, (-1.0, 1.0, -1.0, 1.0), 3)
        oracle = [dense_resolvent_norm(H, z) for z in grid.zs]
        assert oracle[4] == np.inf
        np.testing.assert_allclose(grid.resolvent_norms, oracle, rtol=1e-10)

    def test_permutation_invariant(self, rng):
        H, perm = _direct_sum_fixture(rng)
        ordered = np.empty_like(H)
        ordered[np.ix_(perm, perm)] = H  # undo the permutation: P H P^T
        bounds = (-2.0, 2.0, -2.0, 2.0)
        a = pseudospectrum(H, 0.1, bounds, 21)
        b = pseudospectrum(ordered, 0.1, bounds, 21)
        inf = np.isinf(a.resolvent_norms)
        np.testing.assert_array_equal(np.isinf(b.resolvent_norms), inf)
        rel = np.abs(a.resolvent_norms[~inf] - b.resolvent_norms[~inf]) / a.resolvent_norms[~inf]
        assert np.max(rel) <= 1e-12
        np.testing.assert_array_equal(a.in_pseudospectrum, b.in_pseudospectrum)

    def test_sizes_accumulate_in_the_order_of_their_first_block(self, rng, monkeypatch):
        # block sizes first appear as 3, 1, 2; ||H - zI||_F is a hypot over
        # the size groups in that order, which pins every byte
        H = _block_diagonal(*(random_matrix(m, rng) for m in (3, 1, 2, 1, 3)))
        groups = {3: [[0, 1, 2], [7, 8, 9]], 1: [[3], [6]], 2: [[4, 5]]}
        zs = pseudospectrum(np.eye(1), 0.1, (-2.0, 2.0, -2.0, 2.0), 16).zs
        smin, frobenius = np.full(len(zs), np.inf), np.zeros(len(zs))
        for index in map(np.array, groups.values()):
            s, norm = antieig._block_norms(H[index[:, :, None], index[:, None, :]], zs, len(zs))
            smin, frobenius = np.minimum(smin, s), np.hypot(frobenius, norm)
        block_norms, sizes = antieig._block_norms, []

        def recording(blocks, *args):
            sizes.append(blocks.shape[1])
            return block_norms(blocks, *args)

        monkeypatch.setattr(antieig, "_block_norms", recording)
        norms = antieig._resolvent(*antieig._smin_and_norm(H, zs))
        assert norms.tobytes() == antieig._resolvent(smin, frobenius).tobytes()
        assert sizes == [3, 1, 2]


class TestOneKernel:
    """``resolvent_norm`` is the block scan at one point."""

    def _cases(self, rng):
        H, _ = _direct_sum_fixture(rng)
        toy, _, _ = pauli.discretize(-1.5, np.linspace(-3.0, 3.0, 20))
        dense = random_complex_symmetric(THREAD_MIN_BLOCK, rng)  # the scan splits it across threads
        return [(H, 21), (toy, 16), (random_complex_symmetric(6, rng), 9), (dense, 5)]

    def test_equals_the_scan_bit_for_bit(self, rng, monkeypatch):
        monkeypatch.setattr(linalg, "_cpu_count", lambda: 2)
        for H, res in self._cases(rng):
            grid = pseudospectrum(H, 0.1, (-2.0, 2.0, -2.0, 2.0), res)
            single = [resolvent_norm(H, z) for z in grid.zs]
            np.testing.assert_array_equal(single, grid.resolvent_norms)

    def test_factorises_blocks_only(self, monkeypatch):
        # 601 momenta, n = 1202: 2x2 symbols, and two 1x1 zeros at k = 0,
        # all in closed form, so neither a dense SVD nor any other runs
        H, _, _ = pauli.discretize(-1.5, np.linspace(-3.0, 3.0, 601))
        z = 0.3 + 0.2j
        svd, shapes = np.linalg.svd, []

        def recording_svd(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "svd", recording_svd)
            norm = resolvent_norm(H, z)
            pseudospectrum(H, 0.1, (-1.0, 10.0, -4.5, 4.5), 4)
        assert shapes == []
        assert norm == pytest.approx(dense_resolvent_norm(H, z), rel=1e-12)

    @pytest.mark.parametrize("t", [1e-300, 1e300])
    def test_scale_covariant(self, t):
        # hypot over the singular values neither overflows nor underflows
        # (t = 1e160: TestHugeNorms)
        G = generate_csa(conj_k(4), 3)
        assert t * resolvent_norm(t * G, t * 0.5j) == pytest.approx(resolvent_norm(G, 0.5j), rel=1e-12)
        grid = pseudospectrum(t * G, 0.5 * t, (-2 * t, 2 * t, -2 * t, 2 * t), 4)
        reference = pseudospectrum(G, 0.5, (-2, 2, -2, 2), 4)
        np.testing.assert_allclose(grid.resolvent_norms * t, reference.resolvent_norms, rtol=1e-12)
        np.testing.assert_array_equal(grid.in_pseudospectrum, reference.in_pseudospectrum)

    def test_empty_matrix_is_the_zero_map(self):
        # ||R(z)|| of the zero map on the zero space is 0, at every point
        H = np.zeros((0, 0))
        assert resolvent_norm(H, 1.0) == 0.0
        grid = pseudospectrum(H, 0.5, (-1.0, 1.0, -1.0, 1.0), 3)
        np.testing.assert_array_equal(grid.resolvent_norms, 0.0)
        assert not grid.in_pseudospectrum.any()


def serial_scan(H, zs):
    """Reference for the threaded kernel: every block size's shifted stack
    ``blocks - zs * eye`` through one batched SVD on the calling thread,
    then the library's spectrum rule."""
    smin, frobenius = np.full(len(zs), np.inf), np.zeros(len(zs))
    sizes = {}
    for component in connected_components(H != 0):
        sizes.setdefault(len(component), []).append(component)
    for m, members in sizes.items():
        index = np.array(members)
        blocks = H[index[:, :, None], index[:, None, :]]
        s = np.linalg.svd(blocks[None] - zs[:, None, None, None] * np.eye(m), compute_uv=False)
        smin = np.minimum(smin, s[..., -1].min(axis=1))
        frobenius = np.hypot(frobenius, np.hypot.reduce(s.reshape(len(s), -1), axis=1))
    return antieig._resolvent(smin, frobenius)


def _negative_zeros(rng):
    """A dense 64-block and twenty 4 x 4 blocks, each with zero entries off
    the diagonal whose real and imaginary parts are -0.0 or 0.0 at random.
    ``b - z * 0`` turns a -0.0 part into 0.0 or keeps it, depending on the
    signs of ``z``, and in the small blocks that moves some singular values
    by an ulp."""
    blocks = []
    for m in [THREAD_MIN_BLOCK] + [4] * 20:
        B = random_matrix(m, rng)
        zero = (rng.random((m, m)) < (0.3 if m > 4 else 0.5)) & ~np.eye(m, dtype=bool)
        B[zero] = 0.0
        B.real[zero & (rng.random((m, m)) < 0.5)] = -0.0
        B.imag[zero & (rng.random((m, m)) < 0.5)] = -0.0
        blocks.append(B)
    return _block_diagonal(*blocks)


@pytest.fixture(params=[1, 2, 3, 8])
def cpus(request, monkeypatch):
    monkeypatch.setattr(linalg, "_cpu_count", lambda: request.param)
    return request.param


class TestThreadedScan:
    """Blocks of at least ``THREAD_MIN_BLOCK`` rows split their shifts into
    one part per CPU, run on the pool and the calling thread; the values
    do not move."""

    CASES = {
        # 49 shifts: parts of unequal length on 2, 3 and 8 CPUs
        "dense96": (lambda rng: random_complex_symmetric(96, rng), (-2.0, 2.0, -2.0, 2.0), 7),
        "mixed": (
            lambda rng: _block_diagonal(
                random_complex_symmetric(THREAD_MIN_BLOCK, rng), _direct_sum_fixture(rng)[0]
            ),
            (-2.0, 2.0, -2.0, 2.0),
            9,
        ),
        # shifts in all four quadrants: every sign pattern of z * 0
        "negative_zeros": (_negative_zeros, (-1.0, 1.0, -1.5, 1.5), 9),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_bit_for_bit_on_any_cpu_count(self, case, cpus, rng, monkeypatch):
        make, bounds, res = self.CASES[case]
        H = make(rng)
        grid = pseudospectrum(H, 0.1, bounds, res)
        reference = serial_scan(H, grid.zs)
        np.testing.assert_array_equal(grid.in_pseudospectrum, reference > 10.0)
        if case != "mixed":  # no block under 3 rows: the SVDs of serial_scan
            assert grid.resolvent_norms.tobytes() == reference.tobytes()
            return
        # the 1 x 1 and 2 x 2 blocks go through the closed form, not LAPACK
        inf = np.isinf(reference)
        np.testing.assert_array_equal(np.isinf(grid.resolvent_norms), inf)
        np.testing.assert_allclose(grid.resolvent_norms[~inf], reference[~inf], rtol=1e-12)
        monkeypatch.setattr(linalg, "_cpu_count", lambda: 1)
        single = pseudospectrum(H, 0.1, bounds, res)
        assert grid.resolvent_norms.tobytes() == single.resolvent_norms.tobytes()

    def test_shifted_stack_is_blocks_minus_z_eye(self, rng):
        # every bit, signs of zero included: LAPACK's singular values can
        # depend on them
        H = _negative_zeros(rng)
        blocks = H[None, :THREAD_MIN_BLOCK, :THREAD_MIN_BLOCK]
        zs = pseudospectrum(np.eye(1), 0.1, (-1.0, 1.0, -1.5, 1.5), 9).zs
        reference = blocks[None] - zs[:, None, None, None] * np.eye(THREAD_MIN_BLOCK)
        assert antieig._shifted(blocks, zs).tobytes() == reference.tobytes()

    @pytest.fixture
    def starts(self, monkeypatch):
        started, start = [], threading.Thread.start

        def counted(thread):
            started.append(thread)
            return start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        return started

    def test_small_blocks_and_single_shifts_stay_serial(self, starts, fresh_pool, monkeypatch, rng):
        monkeypatch.setattr(linalg, "_cpu_count", lambda: 8)
        toy, _, _ = pauli.discretize(-1.5, np.linspace(-3.0, 3.0, 20))
        small = random_complex_symmetric(THREAD_MIN_BLOCK - 1, rng)
        for H in (toy, _direct_sum_fixture(rng)[0], small):
            pseudospectrum(H, 0.1, (-2.0, 2.0, -2.0, 2.0), 5)
        resolvent_norm(random_complex_symmetric(THREAD_MIN_BLOCK, rng), 0.5j)
        assert starts == []
        # on two CPUs the calling thread runs the last of two parts and a
        # new pool the other, on one thread that stays for the next call
        monkeypatch.setattr(linalg, "_cpu_count", lambda: 2)
        dense = random_complex_symmetric(THREAD_MIN_BLOCK, rng)
        pseudospectrum(dense, 0.1, (-2.0, 2.0, -2.0, 2.0), 5)
        assert len(starts) == 1
        pool = linalg._pool
        pseudospectrum(dense, 0.1, (-2.0, 2.0, -2.0, 2.0), 5)
        # a second scan takes the same pool and finds its thread idle; a
        # worker marks itself idle just after its part's result is set, so
        # the caller may outrun it, and the pool start its second and last
        assert linalg._pool is pool and len(starts) <= 2
        assert all(thread.is_alive() for thread in starts)

    def test_one_cpu_starts_no_thread(self, starts, monkeypatch, rng):
        monkeypatch.setattr(linalg, "_cpu_count", lambda: 1)
        pseudospectrum(random_complex_symmetric(96, rng), 0.1, (-2.0, 2.0, -2.0, 2.0), 5)
        assert starts == []

    def test_more_threads_than_cpus_at_a_short_switch_interval(self, monkeypatch, rng):
        # sixteen parts, their results gathered in part order while the
        # interpreter switches threads every microsecond
        monkeypatch.setattr(linalg, "_cpu_count", lambda: 16)
        H = random_complex_symmetric(THREAD_MIN_BLOCK, rng)
        zs = np.linspace(-2.0, 2.0, 40) + 0.3j
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            norms = antieig._resolvent(*antieig._smin_and_norm(H, zs))
        finally:
            sys.setswitchinterval(interval)
        assert norms.tobytes() == serial_scan(H, zs).tobytes()

    def test_benchmark_scan_plan(self, monkeypatch, rng):
        # the plan of the benchmark's dense op, n = 120 at 256 shifts on two
        # CPUs: two parts of 128 shifts, one on the calling thread and one
        # on a pool thread, each in batched SVDs of 36, 36, 36 and 20 shifts
        # (SVD_STACK_ENTRIES: 16 MB of stacks in flight). Chunks of 2 shifts
        # serialized the two threads, and a pool that leaves the caller idle
        # held ~5 MB more RSS
        monkeypatch.setattr(linalg, "_cpu_count", lambda: 2)
        svd, calls = np.linalg.svd, {}

        def recording_svd(a, *args, **kwargs):
            calls.setdefault(threading.get_ident(), []).append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        pseudospectrum(random_complex_symmetric(120, rng), 0.1, (-2.0, 2.0, -2.0, 2.0), 16)
        assert len(calls) == 2 and threading.get_ident() in calls
        for shapes in calls.values():
            assert shapes == [(36, 1, 120, 120)] * 3 + [(20, 1, 120, 120)]

    @pytest.mark.parametrize("chunks", ["one", "two", "several"])
    @pytest.mark.parametrize("count", [1, 2])
    def test_chunks_do_not_change_the_values(self, chunks, count, monkeypatch, rng):
        # 49 shifts in parts of 49 (one CPU) or 25 and 24 (two), each part
        # in one chunk, two or chunks of 4 shifts, the last chunk shorter;
        # the twenty 4 x 4 blocks are chunked too. Signs of zero included
        monkeypatch.setattr(linalg, "_cpu_count", lambda: count)
        H = _negative_zeros(rng)
        zs = pseudospectrum(np.eye(1), 0.1, (-1.0, 1.0, -1.5, 1.5), 7).zs
        whole = antieig._resolvent(*antieig._smin_and_norm(H, zs))
        longest = -(-len(zs) // count)
        step = {"one": longest, "two": -(-longest // 2), "several": 4}[chunks]
        monkeypatch.setattr(antieig, "SVD_STACK_ENTRIES", step * count * THREAD_MIN_BLOCK**2)
        svd, calls = np.linalg.svd, []

        def recording_svd(a, *args, **kwargs):
            calls.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        assert antieig._resolvent(*antieig._smin_and_norm(H, zs)).tobytes() == whole.tobytes()
        dense = sorted(shape[0] for shape in calls if shape[2] == THREAD_MIN_BLOCK)
        parts = np.array_split(zs, count)
        assert sum(dense) == len(zs) and len(dense) == sum(-(-len(part) // step) for part in parts)
        assert min(dense) < step or chunks == "one"  # a remainder chunk

    def test_benchmark_scan_stacks_fit_the_budget(self, monkeypatch, rng):
        # the benchmark's dense op: n = 120 at 256 shifts on two CPUs held
        # ~59 MB of stacks at a budget of 2**22 entries, 64 MB
        monkeypatch.setattr(linalg, "_cpu_count", lambda: 2)
        H = random_complex_symmetric(120, rng)
        tracemalloc.start()
        try:
            pseudospectrum(H, 0.1, (-2.0, 2.0, -2.0, 2.0), 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * 2**24  # SVD_STACK_ENTRIES of complex128: 16 MB

    def test_error_callback_reaches_every_thread(self, cpus, monkeypatch):
        # the hypot over subnormal singular values underflows; under
        # np.errstate(call=f) every part must run with f, or numpy raises
        # NameError ("no function found") in the part's thread
        G = random_matrix(64, np.random.default_rng(0))
        H = 1e-310 * (G + G.T)
        bounds = (-1e-309, 1e-309, -1e-309, 1e-309)

        def scan():
            calls = []
            with np.errstate(all="call", call=lambda kind, flag: calls.append(kind)):
                norms = pseudospectrum(H, 1e300, bounds, 3).resolvent_norms
            return norms, calls

        norms, calls = scan()
        assert calls
        monkeypatch.setattr(linalg, "_cpu_count", lambda: 1)
        assert norms.tobytes() == scan()[0].tobytes()

    @pytest.mark.parametrize("failing", [0, 6])  # in the caller's part, in the last thread's
    def test_an_error_in_one_part_propagates(self, failing, cpus, monkeypatch, rng):
        H = random_complex_symmetric(THREAD_MIN_BLOCK, rng)
        H[0, 0] = 0.0  # so the stack's first entry at shift z is -z
        zs = np.linspace(-1.0, 1.0, 7) + 0.5j
        svd = np.linalg.svd

        def failing_svd(a, *args, **kwargs):
            if -zs[failing] in a[:, 0, 0, 0]:
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        before = threading.active_count()
        with pytest.raises(np.linalg.LinAlgError):
            antieig._resolvent(*antieig._smin_and_norm(H, zs))
        assert threading.active_count() == before

    @pytest.mark.parametrize("count", [1, 2])
    def test_one_shifted_stack_in_memory(self, count, monkeypatch, rng):
        # 256 shifts of a dense 64 x 64 H: 16.8 MB of shifted blocks, built
        # in place; ``blocks - zs * eye`` would hold two such stacks
        monkeypatch.setattr(linalg, "_cpu_count", lambda: count)
        H = random_complex_symmetric(THREAD_MIN_BLOCK, rng)
        zs = (np.linspace(-2, 2, 16)[None, :] + 1j * np.linspace(-2, 2, 16)[:, None]).ravel()
        stack = len(zs) * H.nbytes
        tracemalloc.start()
        try:
            antieig._resolvent(*antieig._smin_and_norm(H, zs))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * stack

    def test_closed_form_in_small_chunks(self):
        # 601 momenta x 4096 shifts: 600 2 x 2 blocks and two 1 x 1 ones.
        # The SVD path's stacks peaked at ~100 MB here and an unchunked
        # closed form at ~150 MB; CLOSED_FORM_CHUNK blocks at a time hold
        # about 1 MB, beside the ~3 MB of ``H != 0`` in the block split
        H, _, _ = pauli.discretize(-1.5, np.linspace(-3.0, 3.0, 601))
        zs = (np.linspace(-1.0, 10.0, 64)[None, :] + 1j * np.linspace(-4.5, 4.5, 64)[:, None]).ravel()
        tracemalloc.start()
        try:
            antieig._resolvent(*antieig._smin_and_norm(H, zs))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**23


@pytest.mark.filterwarnings("error")
class TestOverflowBeforeLapack:
    """An entry of ``H - zI`` overflows at a finite shift while ``||H||_F``
    does not: ``NonFinite`` is raised before any SVD, so LAPACK prints
    nothing."""

    z = 1.797e308j

    def test_eigensystem(self, capfd):
        H = overflowing_diagonal(8, 8)
        assert fro(H) < np.inf
        with pytest.raises(NonFinite, match="overflows"):
            antilinear_eigensystem(H, conj_k(8), self.z)
        assert capfd.readouterr() == ("", "")

    def test_scan_of_a_threaded_block(self, cpus, capfd):
        # only the grid's last row overflows: on more than one CPU that is
        # a thread's part, which must run under the caller's error state
        # to raise NonFinite rather than numpy's overflow warning
        H = overflowing_diagonal(THREAD_MIN_BLOCK, 64)
        assert fro(H) < np.inf
        with pytest.raises(NonFinite, match="overflows"):
            pseudospectrum(H, 0.1, (-1.0, 1.0, 0.0, self.z.imag), 8)
        with pytest.raises(NonFinite, match="overflows"):
            resolvent_norm(H, self.z)
        assert capfd.readouterr() == ("", "")


EPS = np.finfo(float).eps


def _stack(count, rng, m=2):
    return rng.standard_normal((count, m, m)) + 1j * rng.standard_normal((count, m, m))


def _rank_one_plus(delta):
    def make(rng):
        u, v = _stack(200, rng).transpose(1, 0, 2)  # 200 pairs of random vectors
        return u[:, :, None] * v[:, None, :].conj() + delta * _stack(200, rng)

    return make


def _close_singular_values(rng):
    # U diag(1, 1 + d) V: sqrt(f - 2 |det|) would carry errors near sqrt(eps)
    gaps = np.repeat([1e-5, 1e-9, 1e-12, 0.0], 25)
    return np.array([haar_unitary(2, rng) @ np.diag([1.0, 1.0 + d]) @ haar_unitary(2, rng) for d in gaps])


def _negative_zero_blocks(rng):
    blocks = _stack(64, rng)
    zero = rng.random((64, 2, 2)) < 0.5
    blocks[zero] = 0.0
    blocks.real[zero & (rng.random((64, 2, 2)) < 0.5)] = -0.0
    blocks.imag[zero & (rng.random((64, 2, 2)) < 0.5)] = -0.0
    return blocks


def _subnormal_blocks(rng):
    tiny = 1e-310 * _stack(50, rng)
    mixed = _stack(50, rng)
    mixed[:, 0, 1] *= 1e-315
    mixed[:, 1, 1] = 4e-320
    return np.concatenate([tiny, mixed])


@pytest.mark.filterwarnings("error")
class TestClosedForm:
    """Blocks of 1 or 2 rows: sigma_min and the Frobenius norm of each
    shifted block, against an SVD of that block."""

    ZS = {"zero": np.zeros(1), "grid": (np.linspace(-2, 2, 5)[None, :] + 1j * np.linspace(-2, 2, 5)[:, None]).ravel()}
    CASES = {
        "random": lambda rng: _stack(500, rng),
        "rank_one_plus_1e-4": _rank_one_plus(1e-4),
        "rank_one_plus_1e-8": _rank_one_plus(1e-8),
        "close_singular_values": _close_singular_values,
        "negative_zeros": _negative_zero_blocks,
        "subnormal": _subnormal_blocks,
        "1x1": lambda rng: np.concatenate([_stack(50, rng, 1), 1e-310 * _stack(50, rng, 1)]),
    }

    @staticmethod
    def assert_matches_svd(blocks, zs):
        smin, norms = antieig._ClosedForm(blocks, len(zs))(zs)
        m = blocks.shape[1]
        s = np.linalg.svd(blocks[None] - zs[:, None, None, None] * np.eye(m), compute_uv=False)
        # 16 ulps of the block's sigma_max, or one ulp of a subnormal result
        bound = 16 * EPS * s[..., 0] + np.finfo(float).smallest_subnormal
        assert np.all(np.abs(smin - s[..., -1]) <= bound)
        assert np.all(np.abs(norms - np.hypot.reduce(s, axis=-1)) <= bound)
        return smin, norms

    @pytest.mark.parametrize("shifts", ZS)
    @pytest.mark.parametrize("case", CASES)
    def test_against_the_svd(self, case, shifts, rng):
        self.assert_matches_svd(self.CASES[case](rng), self.ZS[shifts])

    @pytest.mark.parametrize("m", [1, 2])
    def test_zero_blocks_are_exact(self, m):
        smin, norms = antieig._ClosedForm(np.zeros((3, m, m)), 2)(np.zeros(2))
        assert not smin.any() and not norms.any()

    def test_jordan_block_near_its_eigenvalue(self):
        # sigma_max - sigma_min = 1 and sigma_max sigma_min = |z|^2, so
        # sigma_min = 2 |z|^2 / (sqrt(1 + 4 |z|^2) + 1), down to ~|z|^2 = 1e-16
        zs = np.logspace(-1, -8, 15) * np.exp(0.7j)
        smin, _ = self.assert_matches_svd(np.array([[[0.0, 1.0], [0.0, 0.0]]]), zs)
        exact = 2 * np.abs(zs) ** 2 / (np.sqrt(1 + 4 * np.abs(zs) ** 2) + 1)
        np.testing.assert_allclose(smin[:, 0], exact, rtol=1e-14)

    def test_toy_model_at_601_momenta_against_a_dense_svd(self):
        H, _, _ = pauli.discretize(-1.5, np.linspace(-3.0, 3.0, 601))
        for z in (0.3 + 0.2j, 4.0 - 1.0j, -0.9 + 4.4j):
            assert resolvent_norm(H, z) == pytest.approx(dense_resolvent_norm(H, z), rel=1e-12, abs=0)

    @pytest.mark.parametrize("t", [1e-300, 1e-160, 1e160, 1e300])
    def test_scale_covariant(self, t):
        # squares of the entries underflow (t = 1e-300, 1e-160) or
        # overflow (t = 1e160, 1e300) without the rescaling; 21 momenta
        # put k = 0, two 1 x 1 zero blocks, beside the 2 x 2 symbols
        H, _, _ = pauli.discretize(-1.5, np.linspace(-3.0, 3.0, 21))
        bounds = (-1.0, 10.0, -4.5, 4.5)
        grid = pseudospectrum(t * H, 0.1 * t, tuple(t * b for b in bounds), 16)
        reference = pseudospectrum(H, 0.1, bounds, 16)
        assert np.all(np.isfinite(reference.resolvent_norms))
        np.testing.assert_allclose(grid.resolvent_norms * t, reference.resolvent_norms, rtol=1e-12)
        np.testing.assert_array_equal(grid.in_pseudospectrum, reference.in_pseudospectrum)

    def test_overflowing_block_norm(self):
        # every entry is finite, ||H - zI||_F is not
        H = np.full((2, 2), 1.5e308)
        with pytest.raises(NonFinite, match="overflows"):
            resolvent_norm(H, 0.0)
        with pytest.raises(NonFinite, match="overflows"):
            pseudospectrum(H, 0.1, (-1.0, 1.0, -1.0, 1.0), 2)

    def test_overflowing_shifted_entry(self):
        H = np.array([[1e308, 1.0], [1.0, 1e308]])
        with pytest.raises(NonFinite, match="overflows"):
            resolvent_norm(H, -1e308)

    def test_chunks_do_not_change_the_values(self, monkeypatch):
        H, _, _ = pauli.discretize(0.5, np.linspace(-3.0, 3.0, 21))
        zs = pseudospectrum(np.eye(1), 0.1, (-1.0, 12.0, -2.0, 2.0), 9).zs
        whole = antieig._resolvent(*antieig._smin_and_norm(H, zs))
        monkeypatch.setattr(antieig, "CLOSED_FORM_CHUNK", 7)  # one to three shifts a chunk
        assert antieig._resolvent(*antieig._smin_and_norm(H, zs)).tobytes() == whole.tobytes()


def _largest_part(x):
    return np.maximum(np.abs(x.real), np.abs(x.imag))


def _squared(x):
    return np.square(x.real) + np.square(x.imag)


def scaled_closed_form(blocks, zs):
    """Reference for the closed form: the scan's kernel before plain
    arithmetic, which rescaled every shifted block by the power of two that
    brings its largest real or imaginary part into [1/2, 1). The scan fed
    it at most CLOSED_FORM_CHUNK blocks at a time: from 2**14 blocks on,
    numpy may evaluate ``a * c.conj()`` as ``c.conj() * a``, which rounds
    differently."""
    diagonal = [blocks[:, i, i] - zs[:, None] for i in range(blocks.shape[1])]
    if len(diagonal) == 1:
        s = np.abs(diagonal[0])
        return s, s
    (a, d), b, c = diagonal, blocks[:, 0, 1], blocks[:, 1, 0]
    top = np.maximum(_largest_part(a), _largest_part(d))
    top = np.maximum(top, np.maximum(_largest_part(b), _largest_part(c)))
    if not np.all(top < np.inf):
        raise NonFinite("||H - zI||_F overflows")
    scale = np.ldexp(1.0, np.minimum(-np.frexp(top)[1], 1023))
    a, b, c, d = a * scale, b * scale, c * scale, d * scale
    p = _squared(a) + _squared(b)
    q = _squared(c) + _squared(d)
    f = p + q
    smax = np.sqrt((f + np.sqrt(np.square(p - q) + 4 * _squared(a * c.conj() + b * d.conj()))) / 2)
    smin = np.abs(a * d - b * c) / np.where(f > 0, smax, 1.0)
    return smin / scale, np.sqrt(f) / scale


class _ScaledKernel:
    """Stands in for ``antieig._ClosedForm`` in a scan: each chunk through
    :func:`scaled_closed_form`."""

    def __init__(self, blocks, rows):
        self.blocks = blocks

    def __call__(self, zs):
        return scaled_closed_form(self.blocks, zs)


def _within_two_ulps(found, reference):
    return np.all(np.abs(found - reference) <= 2 * np.spacing(reference))


@pytest.mark.filterwarnings("error")
class TestPlainClosedForm:
    """The closed form in plain arithmetic, with the scaled formula only for
    the (shift, block) pairs whose squared norm leaves PLAIN_RANGE, against
    the scaled formula everywhere."""

    #: the benchmark's two toy windows and one across the real axis
    WINDOWS = [(-1.0, 10.0, -4.5, 4.5), (-1.0, 12.0, -2.0, 2.0), (-0.5, 9.5, -3.0, 3.0)]

    @staticmethod
    def reference_scan(H, epsilon, bounds, res, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(antieig, "_ClosedForm", _ScaledKernel)
            return pseudospectrum(H, epsilon, bounds, res)

    @staticmethod
    def recording_scaled(monkeypatch):
        scaled, sizes = antieig._scaled, []

        def recording(a, *args):
            sizes.append(a.size)
            return scaled(a, *args)

        monkeypatch.setattr(antieig, "_scaled", recording)
        return sizes

    @pytest.mark.parametrize("momenta", [21, 80, 601])
    @pytest.mark.parametrize("alpha", [-1.5, -1.0, 0.0, 0.5, 2.0])
    def test_toy_model_bit_for_bit(self, alpha, momenta, monkeypatch):
        # 21 momenta put k = 0, two 1 x 1 zero blocks, beside the symbols
        H, _, _ = pauli.discretize(alpha, np.linspace(-3.0, 3.0, momenta))
        rescued = self.recording_scaled(monkeypatch)
        for bounds in self.WINDOWS:
            reference = self.reference_scan(H, 0.1, bounds, 16, monkeypatch)
            grid = pseudospectrum(H, 0.1, bounds, 16)
            assert grid.resolvent_norms.tobytes() == reference.resolvent_norms.tobytes()
            np.testing.assert_array_equal(grid.in_pseudospectrum, reference.in_pseudospectrum)
        assert rescued == []  # every toy pair in plain arithmetic

    @pytest.mark.parametrize("t", np.logspace(-120, 120, 13))
    def test_random_blocks_within_two_ulps(self, t, rng, monkeypatch):
        # t up to 1e20 keeps the squares in range; from 1e40 on every pair
        # takes the scaled formula, and so the same bits (t and 1/t alike)
        blocks = t * _stack(200, rng)
        zs = t * TestClosedForm.ZS["grid"]
        smin, norms = antieig._ClosedForm(blocks, len(zs))(zs)
        reference = scaled_closed_form(blocks, zs)
        assert _within_two_ulps(smin, reference[0]) and _within_two_ulps(norms, reference[1])
        if not 1e-30 < t < 1e30:
            assert smin.tobytes() == reference[0].tobytes() and norms.tobytes() == reference[1].tobytes()
        H = _block_diagonal(*blocks)
        bounds = (-2.0 * t, 2.0 * t, -2.0 * t, 2.0 * t)
        grid = pseudospectrum(H, 0.05 * t, bounds, 9)
        expected = self.reference_scan(H, 0.05 * t, bounds, 9, monkeypatch)
        assert _within_two_ulps(grid.resolvent_norms, expected.resolvent_norms)
        np.testing.assert_array_equal(grid.in_pseudospectrum, expected.in_pseudospectrum)
        assert 0 < np.count_nonzero(grid.in_pseudospectrum) < len(grid.zs)

    def test_blocks_the_scaled_formula_leaves_unscaled(self, rng):
        # b = 0.75 + ... is the largest part at every shift, so the scaled
        # formula multiplies by 2**0 and the same operations must give the
        # same bits, whatever the C library's hypot does
        blocks = 0.2 * (rng.random((300, 2, 2)) - 0.5) + 0.2j * (rng.random((300, 2, 2)) - 0.5)
        blocks[:, 0, 1] += 0.75
        zs = 0.2 * (rng.random(20) - 0.5) + 0.2j * (rng.random(20) - 0.5)
        found, expected = antieig._ClosedForm(blocks, len(zs))(zs), scaled_closed_form(blocks, zs)
        for values, reference in zip(found, expected):
            assert values.tobytes() == reference.tobytes()

    def test_a_chunk_on_both_sides_of_the_range(self, rng, monkeypatch):
        # blocks of size 1e-100, 1 and 1e100 at shifts of size 1e-100: in
        # every chunk some squared norms fall below PLAIN_RANGE, some inside
        # and some above it
        blocks = np.concatenate([1e-100 * _stack(4, rng), _stack(4, rng), 1e100 * _stack(4, rng)])
        blocks = blocks[rng.permutation(len(blocks))]
        zs = 1e-100 * TestClosedForm.ZS["grid"]
        smin, norms = scaled_closed_form(blocks, zs)
        low, high = antieig.PLAIN_RANGE
        outside = ~((low <= norms**2) & (norms**2 <= high))
        assert outside.any() and not outside.all()
        rescued = self.recording_scaled(monkeypatch)
        found = antieig._ClosedForm(blocks, len(zs))(zs)
        assert rescued == [np.count_nonzero(outside)]
        for values, expected in zip(found, (smin, norms)):
            assert values[outside].tobytes() == expected[outside].tobytes()
            assert _within_two_ulps(values, expected)
        # chunks of one, seven and all 25 shifts give the same bits
        for rows in (1, 7, 25):
            kernel = antieig._ClosedForm(blocks, rows)
            starts = range(0, len(zs), rows)
            chunks = [[x.copy() for x in kernel(zs[start : start + rows])] for start in starts]
            for values, chunked in zip(found, zip(*chunks)):
                assert values.tobytes() == np.concatenate(chunked).tobytes()

    @pytest.mark.parametrize("alpha", [-1.5, 0.0, 0.5])
    def test_shift_on_a_diagonal_entry(self, alpha, rng, monkeypatch):
        # z = k^2 zeroes both diagonal entries of the symbol at k:
        # [[0, k], [alpha k, 0]], singular at alpha = 0
        k = np.linspace(-3.0, 3.0, 21)
        H, _, _ = pauli.discretize(alpha, k)
        zs = (k * k).astype(complex)
        norms = antieig._resolvent(*antieig._smin_and_norm(H, zs))
        with monkeypatch.context() as patch:
            patch.setattr(antieig, "_ClosedForm", _ScaledKernel)
            assert norms.tobytes() == antieig._resolvent(*antieig._smin_and_norm(H, zs)).tobytes()
        assert np.all(np.isinf(norms)) == (alpha == 0.0)
        # random blocks, each shifted by its own first diagonal entry
        blocks = _stack(50, rng)
        smin, block_norms = antieig._ClosedForm(blocks, len(blocks))(blocks[:, 0, 0])
        reference = scaled_closed_form(blocks, blocks[:, 0, 0])
        assert _within_two_ulps(smin, reference[0]) and _within_two_ulps(block_norms, reference[1])
        TestClosedForm.assert_matches_svd(blocks, blocks[:, 0, 0])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("epsilon", [1e-310, np.float64(1e-310)])
def test_spectrum_points_are_inside_when_one_over_epsilon_overflows(epsilon):
    # 1 / 1e-310 is inf, and inf > inf is false: z = 0 is in the spectrum
    # of the zero matrix and so in every epsilon-pseudospectrum
    grid = pseudospectrum(np.zeros((1, 1)), epsilon, (-1.0, 1.0, -1.0, 1.0), 3)
    assert grid.resolvent_norms[4] == np.inf
    np.testing.assert_array_equal(grid.in_pseudospectrum, np.arange(9) == 4)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "H, bounds, inside",
    [
        # sigma_min ~ 1e-309 > epsilon: 1 / sigma_min overflows, but z is outside
        (np.diag([1e-300, 2e-300]), (1.000000001e-300, 1.000000001e-300 + 1e-315, 0, 1e-315), [False] * 4),
        # sigma_min ~ 1e-311 < epsilon at re_min, ~ 1e-309 at re_max
        (np.diag([1e-300, 2e-300]), (1e-300 + 1e-311, 1.000000001e-300, 0, 1e-315), [True, False, True, False]),
        # sigma_min ~ 1e-309 > epsilon, but below SPECTRUM_CUTOFF * 1e-296: in the spectrum
        (np.diag([1e-296, 2e-296]), (1e-296 + 1e-309, 1e-296 + 2e-309, 0, 1e-315), [True] * 4),
    ],
    ids=["outside", "either-side-of-epsilon", "in-the-spectrum"],
)
def test_an_overflowing_norm_outside_the_spectrum_is_inside_only_below_epsilon(H, bounds, inside):
    grid = pseudospectrum(H, 1e-310, bounds, 2)
    assert np.isinf(grid.resolvent_norms).all()
    assert grid.in_pseudospectrum.tolist() == inside
