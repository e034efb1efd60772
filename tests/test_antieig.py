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
from csaop import antieig, decomp
from csaop.antiunitary import AntiunitaryOp
from csaop.decomp import SVD_CLUSTER_GAP
from csaop.linalg import DEFAULT_TOL, fro
from csaop import pauli
from csaop.pauli import MINUS_I_SIGMA2

from conftest import conj_k, random_complex_symmetric


class TestAntilinearEigensystem:
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

    def test_degeneracy_propagates(self):
        C = AntiunitaryOp(MINUS_I_SIGMA2)
        with pytest.raises(UnsupportedDegeneracy):
            antilinear_eigensystem(2.0 * np.eye(2), C, 5.0)


class TestResiduals:
    @pytest.mark.parametrize("H, z", [
        (np.diag([1.0, 4.0]), 0.0),
        (np.diag([1.0, 1.0 + 1e-9, 1.0 - 1e-9, 4.0, 4.0 + 1e-10]), 0.5j),  # clusters in R(z)
        (generate_csa(conj_k(16), 4), 0.3 + 0.2j),
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
        # the lambda slack, clustered here independently of the library
        sigma = 1.0 / lambdas
        close = np.abs(np.diff(sigma)) <= SVD_CLUSTER_GAP * sigma[0]
        slack = float(np.max(np.abs(np.diff(lambdas))[close], initial=0.0))
        bound = DEFAULT_TOL.bound(max(1.0, fro(H)) + lambdas[-1]) + 2.0 * slack * np.sqrt(n)
        assert bounds == {"expansion": bound, "completeness": DEFAULT_TOL.bound(1.0)}
        assert all(system.residuals[name] <= bounds[name] for name in bounds)


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

    def test_points_property(self):
        grid = pseudospectrum(np.zeros((1, 1)), 0.5, (-1, 1, -1, 1), 3)
        z, r, member = grid.points[0]
        assert isinstance(z, complex) and isinstance(r, float) and isinstance(member, bool)


def _direct_sum_fixture(rng):
    """Block-diagonal H with dense blocks of sizes 1, 2, 3 and 5, a 2x2
    zero block and a 2x2 Jordan block at 0, under a random permutation."""
    blocks = [rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)) for m in (1, 2, 3, 5)]
    blocks += [np.zeros((2, 2)), np.array([[0.0, 1.0], [0.0, 0.0]])]
    n = sum(len(B) for B in blocks)
    H = np.zeros((n, n), dtype=complex)
    start = 0
    for B in blocks:
        H[start : start + len(B), start : start + len(B)] = B
        start += len(B)
    perm = rng.permutation(n)
    return H[np.ix_(perm, perm)], perm


class TestBlockScan:
    """The scan runs per diagonal block; the oracle is one SVD of the
    whole H - zI per point (``resolvent_norm``)."""

    def _cases(self, rng):
        H, _ = _direct_sum_fixture(rng)
        toy, _, _ = pauli.discretize(-1.5, np.linspace(-3.0, 3.0, 20))
        # an odd resolution puts z = 0, in the spectrum of H, on the grid
        return [(H, 0.1, (-2.0, 2.0, -2.0, 2.0), 21, True), (toy, 0.1, (-1.0, 10.0, -4.5, 4.5), 16, False)]

    def test_matches_full_svd(self, rng):
        for H, eps, bounds, res, hits_spectrum in self._cases(rng):
            grid = pseudospectrum(H, eps, bounds, res)
            oracle = np.array([resolvent_norm(H, z) for z in grid.zs])
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
        oracle = [resolvent_norm(H, z) for z in grid.zs]
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
