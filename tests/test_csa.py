import dataclasses
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import csaop
from csaop import (
    AntiunitaryOp,
    DimMismatch,
    NonFinite,
    NotCsa,
    antilinear_eigensystem,
    check_c_real,
    check_c_selfadjoint,
    eigen_pairing,
    generate_csa,
    kernel_pairing,
    refined_polar,
    refined_svd,
)
from csaop import antiunitary, csa
from csaop.linalg import CHECK_THREAD_MIN_DIM, DEFAULT_TOL, cayley, direct_sum_blocks, fro, nullspace

from conftest import (
    c2_blocks,
    class_operator,
    conj_k,
    haar_unitary,
    hadamard_conjugation,
    mixed_square,
    near_involutive,
    overflowing_csa,
    overflowing_diagonal,
    random_antiunitary,
    random_complex_symmetric,
    random_matrix,
    square_split_by_w,
    symmetrized_csa,
)


class TestChecks:
    def test_identity_always_csa(self):
        report = check_c_selfadjoint(np.eye(3), random_antiunitary(3, seed=1))
        assert report.is_csa and report.residual <= 1e-14

    def test_nilpotent_with_conjugation(self):
        # conj(H) - H* = [[0,1],[-1,0]] by hand, Frobenius norm sqrt(2)
        report = check_c_selfadjoint(np.array([[0.0, 1.0], [0.0, 0.0]]), conj_k(2))
        assert not report.is_csa
        assert report.residual == pytest.approx(np.sqrt(2))

    def test_huge_nilpotent_with_conjugation(self):
        # the same residual at 1e160, where ||H||_F^2 overflows
        H = 1e160 * np.array([[0.0, 1.0], [0.0, 0.0]])
        report = check_c_selfadjoint(H, conj_k(2))
        assert not report.is_csa
        assert report.residual == pytest.approx(1e160 * np.sqrt(2))
        with pytest.raises(NotCsa):
            refined_polar(H, conj_k(2))

    @pytest.mark.parametrize("check", [check_c_selfadjoint, check_c_real])
    def test_overflowing_norm_is_non_finite(self, check):
        # no NaN residual and no infinite bound: the check refuses the scale
        H, C = overflowing_csa()
        assert check_c_selfadjoint(H / 1e300, C).residual == 0.0  # exact at a safe scale
        for H, C in ((H, C), (np.full((2, 2), 1e308), hadamard_conjugation(2))):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NonFinite, match="overflows"):
                    check(H, C)

    def test_largest_finite_norm_is_checked(self):
        # ||H||_F just below the overflow threshold: a finite residual and bound
        H = np.zeros((4, 4))
        H[:, 0] = 8.98e307
        report = check_c_selfadjoint(H, hadamard_conjugation(4))
        assert report.is_csa and np.isfinite(report.residual)

    def test_overflowing_residual_rejects(self):
        # ||H||_F = 1.41e308 is finite, but conj(H) - H* = 2H is not
        H = 1e308 * np.array([[0.0, 1.0], [-1.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = check_c_selfadjoint(H, conj_k(2))
            with pytest.raises(NotCsa):
                refined_polar(H, conj_k(2))
        assert report.residual == np.inf and not report.is_csa

    @pytest.mark.parametrize("t", [1e-12, 1e-20])
    def test_tiny_nilpotent_with_conjugation(self, t):
        # the residual is sqrt(2) ||H||_F at every scale, so no scale makes it small
        H = t * np.array([[0.0, 1.0], [0.0, 0.0]])
        assert not check_c_selfadjoint(H, conj_k(2)).is_csa
        for decompose in (refined_polar, refined_svd):
            with pytest.raises(NotCsa):
                decompose(H, conj_k(2))

    def test_real_matrix_is_k_real(self, rng):
        report = check_c_real(rng.standard_normal((4, 4)), conj_k(4))
        assert report.is_csa

    def test_imaginary_diagonal_not_k_real(self):
        report = check_c_real(np.diag([1j, -1j]), conj_k(2))
        assert not report.is_csa

    def test_adjoint_duality(self, rng):
        # H is C-self-adjoint iff H* is C^-1-self-adjoint
        C = random_antiunitary(5, seed=4)
        H = generate_csa(C, 11)
        assert check_c_selfadjoint(H, C).is_csa
        assert check_c_selfadjoint(H.conj().T, C.adjoint()).is_csa
        M = random_matrix(5, rng)
        assert check_c_selfadjoint(M, C).is_csa == check_c_selfadjoint(M.conj().T, C.adjoint()).is_csa

    def test_report_json(self):
        report = check_c_selfadjoint(np.eye(2), conj_k(2))
        payload = report.to_json()
        assert set(payload) == {"residual", "is_csa"}


class TestGenerate:
    def test_conjugation_gives_complex_symmetric(self):
        H = generate_csa(conj_k(4), 3)
        assert fro(H - H.T) <= 1e-12 * fro(H)

    def test_c2_forces_scalar(self):
        # hand-solved 2x2 constraint: off-diagonals vanish, diagonal equal
        H = generate_csa(c2_blocks(2), 9)
        assert abs(H[0, 1]) <= 1e-12 and abs(H[1, 0]) <= 1e-12
        assert abs(H[0, 0] - H[1, 1]) <= 1e-12

    def test_deterministic_in_seed(self):
        C = random_antiunitary(5, seed=0)
        np.testing.assert_array_equal(generate_csa(C, 42), generate_csa(C, 42))
        assert fro(generate_csa(C, 42) - generate_csa(C, 43)) > 1e-3

    @pytest.mark.parametrize("dim", [2, 3, 6, 11])
    def test_random_conjugations_pass_check(self, dim):
        C = random_antiunitary(dim, seed=dim)
        for seed in range(5):
            H = generate_csa(C, seed)
            report = check_c_selfadjoint(H, C)
            assert report.residual <= 1e-9 * max(1.0, fro(H))

    def test_agrees_with_symmetrization_route(self, rng):
        # independent construction: averaging is a projection when C^2 = +-I
        for C in (conj_k(6), c2_blocks(6)):
            H = symmetrized_csa(random_matrix(6, rng), C)
            assert check_c_selfadjoint(H, C).is_csa

    def test_kramers_doubling_for_anti_involutive(self):
        for dim, seed in [(4, 0), (6, 1), (8, 2)]:
            H = generate_csa(c2_blocks(dim), seed)
            assert all(m % 2 == 0 for m in eigenvalue_multiplicities(H))


#: Absolute eigenvalue clustering gap, relative to ||H||. Eigenvalues of
#: non-normal matrices are only accurate to roughly sqrt(machine epsilon).
EIG_CLUSTER_GAP = 1e-6


def eigenvalue_multiplicities(H):
    """The distinct sizes of the single-linkage clusters of the eigenvalues
    of ``H`` at gap ``EIG_CLUSTER_GAP * ||H||``."""
    values = np.linalg.eigvals(H)
    close = np.abs(values[:, None] - values[None, :]) <= EIG_CLUSTER_GAP * fro(H)
    return list(direct_sum_blocks(close))


def constraint_basis(C):
    """Real orthonormal basis (rows ``[Re H, Im H]``) of the solutions of
    ``A conj(H) = H* A``, from the nullspace of the 2n^2 x 2n^2 real
    constraint matrix. O(n^6): an oracle for small n only."""
    A = C.unitary_part
    n = C.dim
    columns = []
    for unit in (1.0, 1.0j):
        for p in range(n):
            for q in range(n):
                E = np.zeros((n, n), dtype=complex)
                E[p, q] = unit
                L = A @ np.conj(E) - E.conj().T @ A
                columns.append(np.concatenate([L.real.ravel(), L.imag.ravel()]))
    return nullspace(np.array(columns).T).T.real


class TestGenerateOracle:
    @pytest.mark.parametrize(
        "C",
        [
            conj_k(5),
            c2_blocks(6),
            random_antiunitary(7, seed=3),
            mixed_square(seed=5),
            # as read back from 12-digit text: A is unitary, and the repeated
            # eigenvalues of C^2 repeat, only to about 1e-12
            AntiunitaryOp(np.round(mixed_square(seed=5).unitary_part, 12)),
        ],
        ids=["K", "c2_blocks", "haar", "mixed_square", "mixed_square_rounded"],
    )
    def test_spans_constraint_nullspace(self, C):
        basis = constraint_basis(C)
        dim = basis.shape[0]
        samples = []
        for seed in range(dim + 4):
            H = generate_csa(C, seed)
            samples.append(np.concatenate([H.real.ravel(), H.imag.ravel()]))
        samples = np.array(samples)
        sigma = np.linalg.svd(samples, compute_uv=False)
        assert int(np.sum(sigma > 1e-8 * sigma[0])) == dim
        outside = samples - (samples @ basis.T) @ basis
        assert np.max(np.linalg.norm(outside, axis=1) / np.linalg.norm(samples, axis=1)) <= 1e-10

    @pytest.mark.parametrize("deviation", [1e-9, 5e-9, 1e-8])
    def test_near_involutive_passes_check(self, deviation):
        # CLASSIFY_TOL calls these C involutive, but an H built as for
        # C^2 = I misses the check by about deviation * ||H||; at 1e-9 the
        # eigenvalues of C^2 also chain closer than C2_CLUSTER_GAP
        C = near_involutive(16, deviation, seed=1)
        assert fro(C.squared() - np.eye(16)) == pytest.approx(deviation, rel=0.1)
        for seed in range(5):
            assert check_c_selfadjoint(generate_csa(C, seed), C).is_csa


def reference_generate_csa(C, seed):
    """The generator as it was before the C^2 split moved onto the operator:
    :func:`square_split_by_w` (``W``, its distance from ``+-I``, the Cayley
    transform, ``eigh`` and the angle labels) on every call. The oracle for
    the bytes of ``generate_csa``."""
    A = C.unitary_part
    n = C.dim
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    split = square_split_by_w(C)
    if split is not None:
        Q, labels = split
        X = Q.conj().T @ G @ Q
        X[labels[:, None] != labels] = 0
        G = Q @ X @ Q.conj().T
    return (G + A.T @ G.T @ A.conj()) / 2


SEEDS = (0, 1, 2, 7, 99, 12345)


class TestGenerateReference:
    @pytest.mark.parametrize(
        "kind, n",
        [
            (kind, n)
            for kind in ("involutive", "anti-involutive", "neither")
            for n in (0, 1, 2, 3, 8, 20, 33)
            if kind != "anti-involutive" or n % 2 == 0  # no anti-involutive C in odd dimension
        ],
    )
    def test_same_bytes_as_per_call_split(self, kind, n):
        C = class_operator(kind, n, seed=n)
        for seed in SEEDS:
            assert generate_csa(C, seed).tobytes() == reference_generate_csa(C, seed).tobytes()

    @pytest.mark.parametrize(
        "C", [c2_blocks(6), near_involutive(16, 1e-9, seed=1), mixed_square(seed=5)],
        ids=["c2_blocks", "near_involutive_1e-9", "mixed_square"],
    )
    def test_same_bytes_on_special_squares(self, C):
        for seed in SEEDS:
            assert generate_csa(C, seed).tobytes() == reference_generate_csa(C, seed).tobytes()

    def test_history_has_no_effect(self):
        # interleaved across two operators and in reverse seed order
        first, second = class_operator("neither", 9, seed=1), class_operator("neither", 9, seed=2)
        for seed in SEEDS[::-1]:
            for C in (second, first):
                assert generate_csa(C, seed).tobytes() == reference_generate_csa(C, seed).tobytes()


class TestSquareSplit:
    @pytest.fixture
    def cayley_calls(self, monkeypatch):
        calls = []

        def counted(W):
            calls.append(W.shape)
            return cayley(W)

        monkeypatch.setattr(antiunitary, "cayley", counted)
        return calls

    def test_computed_once_per_operator(self, cayley_calls):
        C = class_operator("neither", 20, seed=3)
        for seed in range(12):
            generate_csa(C, seed)
        assert cayley_calls == [(20, 20)]

    @pytest.mark.parametrize("kind", ["involutive", "anti-involutive"])
    def test_none_for_plus_minus_identity(self, kind, cayley_calls):
        C = class_operator(kind, 8, seed=4)
        for seed in range(12):
            generate_csa(C, seed)
        assert C.square_split is None
        assert C.commutant_projection is None
        assert cayley_calls == []

    def test_read_only(self):
        Q, labels = class_operator("neither", 6, seed=5).square_split
        for array in (Q, labels):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0

    def test_projection_parts_are_kept_read_only(self):
        C = class_operator("neither", 6, seed=5)
        (Q, labels), (P, Qh, apart) = C.square_split, C.commutant_projection
        assert P is Q and C.commutant_projection[1] is Qh
        np.testing.assert_array_equal(Qh, Q.conj().T)
        np.testing.assert_array_equal(apart, labels[:, None] != labels)
        for array in (Qh, apart):
            assert not array.flags.writeable

    def test_adjoint_has_its_own(self, cayley_calls):
        C = class_operator("neither", 7, seed=6)
        generate_csa(C, 0)
        D = C.adjoint()  # C^{-1}
        assert "square_split" not in vars(D)
        for seed in range(3):
            H = generate_csa(D, seed)
            assert check_c_selfadjoint(H, D).residual <= 1e-9 * fro(H)
        assert cayley_calls == [(7, 7), (7, 7)]

    def test_two_threads_on_a_fresh_operator(self):
        A = class_operator("neither", 20, seed=7).unitary_part
        serial = [generate_csa(AntiunitaryOp(A), seed).tobytes() for seed in range(12)]
        C, start = AntiunitaryOp(A), threading.Barrier(2)
        results = [None, None]

        def work(slot):
            start.wait()
            results[slot] = [generate_csa(C, seed).tobytes() for seed in range(12)]

        threads = [threading.Thread(target=work, args=(slot,)) for slot in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results == [serial, serial]


def test_import_leaves_out_scipy():
    # importing scipy.linalg costs a few tenths of a second at every CLI start
    src = str(Path(csaop.__file__).resolve().parents[1])
    code = "import sys, csaop; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], cwd=src, timeout=60).returncode == 0


def test_scan_and_clustering_leave_out_scipy():
    # the pseudospectrum scan and the clustering stay numpy-only as well
    src = str(Path(csaop.__file__).resolve().parents[1])
    code = (
        "import sys, numpy as np, csaop\n"
        "from csaop.linalg import cluster_indices\n"
        "csaop.pseudospectrum(np.diag([1.0, 2.0]), 0.1, (0.0, 3.0, -1.0, 1.0), 4)\n"
        "cluster_indices(np.array([2.0, 1.0, 1.0]), 1e-3)\n"
        "sys.exit('scipy' in sys.modules)"
    )
    assert subprocess.run([sys.executable, "-c", code], cwd=src, timeout=60).returncode == 0


class TestEigenPairing:
    def test_diagonal_complex_symmetric(self):
        pairs = eigen_pairing(np.diag([1 + 1j, 2.0]), conj_k(2))
        assert all(res <= 1e-10 for _, _, res in pairs)
        assert sorted(lam.real for lam, _, _ in pairs) == pytest.approx([1.0, 2.0])

    def test_identity(self):
        pairs = eigen_pairing(np.eye(3), random_antiunitary(3, seed=8))
        assert all(res <= 1e-12 for _, _, res in pairs)

    def test_generated_matrix(self):
        C = random_antiunitary(6, seed=21)
        H = generate_csa(C, 13)
        assert all(res <= 1e-8 for _, _, res in eigen_pairing(H, C))

    def test_requires_csa(self):
        with pytest.raises(NotCsa):
            eigen_pairing(np.array([[0.0, 1.0], [0.0, 0.0]]), conj_k(2))

    def test_adjoint_spectrum_is_conjugate(self):
        C = random_antiunitary(7, seed=2)
        H = generate_csa(C, 5)
        eigs = np.sort_complex(np.linalg.eigvals(H))
        adj = np.sort_complex(np.conj(np.linalg.eigvals(H.conj().T)))
        assert np.max(np.abs(eigs - adj)) <= 1e-6 * max(1.0, fro(H))


    @pytest.mark.parametrize("n", [1, 4, 16])
    def test_matches_per_vector_reference(self, n):
        C = random_antiunitary(n, seed=n)
        H = generate_csa(C, n)
        values, vectors = np.linalg.eig(H)
        pairs = eigen_pairing(H, C)
        assert len(pairs) == n
        for (lam, psi, residual), ref_lam, ref_psi in zip(pairs, values, vectors.T):
            assert lam == ref_lam
            np.testing.assert_array_equal(psi, ref_psi)
            mapped = C.apply(ref_psi)
            ref = np.linalg.norm(H.conj().T @ mapped - np.conj(ref_lam) * mapped)
            assert abs(residual - ref) <= 1e-14 * fro(H)

    @pytest.mark.parametrize("t", [1e-150, 1e-170])
    def test_residuals_scale_with_tiny_h(self, t):
        # the residuals are rounding errors of size eps t ||H||; column
        # norms whose squares underflow would read exactly 0
        C = AntiunitaryOp(haar_unitary(6, np.random.default_rng(3)))
        H = generate_csa(C, 3)
        reference = {complex(lam): r for lam, _, r in eigen_pairing(H, C)}
        pairs = eigen_pairing(t * H, C)
        assert len(pairs) == 6
        for lam, _, residual in pairs:
            expected = t * reference[min(reference, key=lambda mu: abs(mu - lam / t))]
            assert 0 < residual and expected / 10 <= residual <= 10 * expected


class TestKernelPairing:
    def test_rank_deficient_diagonal(self):
        assert kernel_pairing(np.diag([0.0, 1.0]), conj_k(2), 0.0) == (1, 1, True)

    def test_empty_kernels(self):
        assert kernel_pairing(np.eye(2), conj_k(2), 2.0) == (0, 0, True)

    def test_engineered_eigenvalue(self):
        # shifting by an eigenvalue keeps C-self-adjointness and creates a kernel
        C = conj_k(6)
        H = generate_csa(C, 17)
        lam = np.linalg.eigvals(H)[0]
        nul, nul_adj, mapped = kernel_pairing(H, C, lam)
        assert nul == nul_adj == 1
        assert mapped

    def test_requires_csa(self):
        with pytest.raises(NotCsa):
            kernel_pairing(np.array([[0.0, 1.0], [0.0, 0.0]]), conj_k(2), 0.0)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, complex(0, -np.inf), complex(np.nan, 1)])
    def test_non_finite_shift(self, lam):
        with pytest.raises(NonFinite, match="shift lam"):
            kernel_pairing(np.diag([0.0, 1.0]), conj_k(2), lam)

    def test_csa_check_comes_before_the_shift_check(self):
        with pytest.raises(NotCsa):
            kernel_pairing(np.array([[0.0, 1.0], [0.0, 0.0]]), conj_k(2), np.nan)

    def test_overflowing_shift_norm_is_non_finite(self):
        # H - lam I is invertible, but ||H - lam I||_F overflows: no kernel
        # dimensions can be read off NaN singular values
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFinite, match="overflows"):
                kernel_pairing(np.diag([1e308, 1.0]), conj_k(2), -1e308)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_entry_never_reaches_lapack(self, capfd):
        # ||H||_F is finite, each diagonal entry of H - lam I is not
        H = overflowing_diagonal(8, 8)
        assert fro(H) < np.inf
        with pytest.raises(NonFinite, match="overflows"):
            kernel_pairing(H, conj_k(8), 1.797e308j)
        assert capfd.readouterr() == ("", "")


class TestShiftedMatrix:
    """``_csa_svd`` builds ``M = H - z I`` entry by entry, not through ``z * eye``."""

    @staticmethod
    def _signed_zeros(n, rng):
        """A complex symmetric (K-self-adjoint) H with zero parts of either sign."""
        H = random_complex_symmetric(n, rng)
        for part in (H.real, H.imag):
            zero = np.triu(rng.random((n, n)) < 0.4)
            part[zero] = np.where(rng.random((n, n)) < 0.5, -0.0, 0.0)[zero]
            part[zero.T] = part.T[zero.T]
        return H

    def test_shift_is_h_minus_z_eye(self, rng):
        # every bit, signs of zero included: LAPACK's singular values can
        # depend on them
        parts = [-0.0, 0.0, -1.5, 2.0, 1e-300]
        for _ in range(300):
            n = int(rng.integers(1, 7))
            H = self._signed_zeros(n, rng)
            z = complex(*rng.choice(parts, 2))
            _, M, *_ = csa._csa_svd(H, conj_k(n), DEFAULT_TOL, z)
            if z:
                assert M.tobytes() == (H - z * np.eye(n)).tobytes(), (H, z)
            else:
                assert M is H


#: The five entry points of the checked front end ``csa._checked``.
CHECKED_ENTRY_POINTS = {
    "refined_polar": lambda H, C: refined_polar(H, C),
    "refined_svd": lambda H, C: refined_svd(H, C),
    "antilinear_eigensystem": lambda H, C: antilinear_eigensystem(H, C, 0.3 + 0.2j),
    "kernel_pairing": lambda H, C: kernel_pairing(H, C, 0.1),
    "eigen_pairing": lambda H, C: eigen_pairing(H, C),
}


def _bits(value):
    """Every array (dtype, shape and bytes) and exact number of a result."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, antiunitary.AntilinearMap):
        return _bits(value.matrix)
    if dataclasses.is_dataclass(value):
        return [_bits(getattr(value, field.name)) for field in dataclasses.fields(value)]
    if isinstance(value, dict):
        return [(key, _bits(item)) for key, item in value.items()]
    if isinstance(value, (list, tuple)):
        return [_bits(item) for item in value]
    return repr(value)  # floats and complex numbers round-trip through repr


def _outcome(call, *args):
    try:
        return "returned", _bits(call(*args))
    except Exception as exc:
        return "raised", type(exc), str(exc)


class TestCheckedFrontEnd:
    """``csa._checked`` runs the check on a pool thread beside the
    factorization from ``CHECK_THREAD_MIN_DIM`` rows up on more than one
    CPU; every output and error is the serial order's."""

    @pytest.fixture
    def pool_calls(self, monkeypatch):
        calls = []

        def counted(work, parts):
            calls.append(len(parts))
            return on_threads(work, parts)

        on_threads = csa._on_threads
        monkeypatch.setattr(csa, "_on_threads", counted)
        return calls

    @pytest.mark.parametrize("n", [CHECK_THREAD_MIN_DIM - 2, CHECK_THREAD_MIN_DIM], ids=["below", "at"])
    @pytest.mark.parametrize("kind", ["involutive", "anti-involutive", "neither"])
    def test_bit_for_bit_on_both_paths(self, n, kind, monkeypatch, pool_calls):
        C = class_operator(kind, n, seed=n)
        inputs = {"csa": generate_csa(C, 5), "not-csa": random_matrix(n, np.random.default_rng(n))}
        outcomes = {}
        for cpus in (1, 2):
            monkeypatch.setattr(csa, "_cpu_count", lambda: cpus)
            outcomes[cpus] = {
                (name, label): _outcome(call, H, C)
                for name, call in CHECKED_ENTRY_POINTS.items()
                for label, H in inputs.items()
            }
        assert outcomes[1] == outcomes[2]
        assert {key[1] for key, outcome in outcomes[1].items() if outcome[0] == "raised"} >= {"not-csa"}
        # the pool ran once per call of the two-CPU pass at and above the crossover only
        assert pool_calls == ([2] * len(outcomes[2]) if n >= CHECK_THREAD_MIN_DIM else [])

    @pytest.fixture(params=[1, 2], ids=["one-cpu", "two-cpus"])
    def cpus(self, request, monkeypatch):
        monkeypatch.setattr(csa, "_cpu_count", lambda: request.param)
        return request.param

    @pytest.mark.parametrize(
        "call, shift",
        [(kernel_pairing, np.nan), (antilinear_eigensystem, complex(np.inf, 0))],
        ids=["kernel_pairing", "antilinear_eigensystem"],
    )
    def test_not_csa_comes_before_a_bad_shift(self, call, shift, cpus):
        H = random_matrix(CHECK_THREAD_MIN_DIM, np.random.default_rng(1))
        with pytest.raises(NotCsa):
            call(H, conj_k(CHECK_THREAD_MIN_DIM), shift)

    @pytest.mark.parametrize("name", CHECKED_ENTRY_POINTS)
    def test_overflowing_norm_is_the_checks_error(self, name, cpus):
        # symmetric, so K-self-adjoint; the factorization fails too, later
        H = np.full((CHECK_THREAD_MIN_DIM, CHECK_THREAD_MIN_DIM), 1.5e308)
        with pytest.raises(NonFinite, match=r"^\|\|H\|\|_F overflows$"):
            CHECKED_ENTRY_POINTS[name](H, conj_k(CHECK_THREAD_MIN_DIM))

    @pytest.mark.parametrize("name", CHECKED_ENTRY_POINTS)
    def test_operator_of_another_dimension_is_the_checks_error(self, name, cpus):
        H = random_complex_symmetric(CHECK_THREAD_MIN_DIM, np.random.default_rng(2))
        with pytest.raises(DimMismatch, match="operator dim"):
            CHECKED_ENTRY_POINTS[name](H, conj_k(CHECK_THREAD_MIN_DIM - 1))

    def test_bad_shift_of_a_csa_matrix_is_the_factors_error(self, cpus):
        H = random_complex_symmetric(CHECK_THREAD_MIN_DIM, np.random.default_rng(3))
        with pytest.raises(NonFinite, match="shift lam"):
            kernel_pairing(H, conj_k(CHECK_THREAD_MIN_DIM), np.nan)
        with pytest.raises(ValueError, match="z must be finite"):
            antilinear_eigensystem(H, conj_k(CHECK_THREAD_MIN_DIM), complex(np.inf, 0))

    @pytest.mark.parametrize("n", [CHECK_THREAD_MIN_DIM - 1, CHECK_THREAD_MIN_DIM], ids=["below", "at"])
    @pytest.mark.parametrize("name", CHECKED_ENTRY_POINTS)
    def test_check_runs_once_by_name_in_the_callers_error_state(self, name, n, cpus, monkeypatch):
        seen = []
        check = csa.check_c_selfadjoint

        def counted(*args):
            seen.append((threading.get_ident(), np.geterr()["over"], np.geterrcall()))
            return check(*args)

        def callback(kind, flag):
            raise AssertionError("no floating-point error is expected")

        monkeypatch.setattr(csa, "check_c_selfadjoint", counted)
        H = random_complex_symmetric(n, np.random.default_rng(n))
        with np.errstate(over="ignore", call=callback):
            CHECKED_ENTRY_POINTS[name](H, conj_k(n))
        assert len(seen) == 1
        thread, over, call = seen[0]
        assert over == "ignore" and call is callback
        assert (thread != threading.get_ident()) == (cpus > 1 and n >= CHECK_THREAD_MIN_DIM)
