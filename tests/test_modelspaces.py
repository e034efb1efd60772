import numpy as np
import pytest

from csaop import (
    DimMismatch,
    HypothesisViolated,
    InvolutionClass,
    NonFinite,
    OddDimension,
    check_c_selfadjoint,
    classify,
    conjugation_k,
)
from csaop.antiunitary import AntiunitaryOp
from csaop.linalg import DEFAULT_TOL, fro
from csaop.modelspaces import (
    BlockAntilinear,
    block_antiunitary_check,
    build_T,
    check_condition_and,
    conjugation_c_alphabeta,
    conjugation_c_gamma,
    example1_matrix,
    example2_conjugation,
    example2_matrix,
    max_support,
    prop11_check,
    theta_condition_check,
)
from csaop.pauli import MINUS_I_SIGMA2

from conftest import condition_and_by_sampling, evaluate_symbol, haar_unitary, random_vector


def random_symbol(rng, support, density=0.8):
    phi = {}
    for n in support:
        if rng.uniform() < density:
            phi[int(n)] = complex(rng.standard_normal(), rng.standard_normal())
    return phi


def valid_symbol_pair(rng, K):
    """A pair that meets both identities of ``check_condition_and``.

    With ``u_k = a_{k+1}`` and ``v_k = b_{k-1}``, ``d1 = 0`` makes
    ``q = v - u`` odd in k, and ``d2 = 0`` makes ``w = u + v`` odd on even k
    and even on odd k. Draw q and w on ``1 <= k <= K``; the supports reach
    ``K + 1``."""
    q, w = np.zeros(2 * K + 1, complex), np.zeros(2 * K + 1, complex)
    for k in range(1, K + 1):
        qk, wk = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        q[K + k], q[K - k] = qk, -qk
        w[K + k], w[K - k] = wk, (-1) ** (k + 1) * wk
    u, v = (w - q) / 2, (w + q) / 2
    phi1 = {k + 1: u[K + k] for k in range(-K, K + 1) if u[K + k] != 0}
    phi2 = {k - 1: v[K + k] for k in range(-K, K + 1) if v[K + k] != 0}
    return phi1, phi2


def scaled(phi, t):
    return {n: t * c for n, c in phi.items()}


SCALES = 10.0 ** np.arange(-300, 301, 25)


class TestConjugationCGamma:
    def test_reverses_and_conjugates(self):
        C = conjugation_c_gamma(4)
        a = np.array([1 + 1j, 2.0, 3 - 2j, 4j])
        np.testing.assert_allclose(C.apply(a), np.conj(a)[::-1])

    def test_dimension_one_is_plain_conjugation(self):
        np.testing.assert_allclose(
            conjugation_c_gamma(1).unitary_part, conjugation_k(1).unitary_part
        )

    @pytest.mark.parametrize("N", [1, 2, 3, 5, 16, 64])
    def test_involutive_and_isometric(self, N, rng):
        C = conjugation_c_gamma(N)
        assert classify(C) is InvolutionClass.INVOLUTIVE
        psi = random_vector(N, rng)
        assert abs(np.linalg.norm(C.apply(psi)) - 1.0) <= 1e-12

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError, match="N must be at least 1"):
            conjugation_c_gamma(0)


class TestConjugationCAlphaBeta:
    def test_pi_twist_action(self):
        # e^{i xi} = -1 sends (a0, a1, a2, a3) to (-conj a3, -conj a2, conj a1, conj a0)
        C = conjugation_c_alphabeta(2, 2, np.pi)
        a = np.array([1 + 1j, 2.0, 3j, 4 - 1j])
        expected = np.array([-np.conj(a[3]), -np.conj(a[2]), np.conj(a[1]), np.conj(a[0])])
        np.testing.assert_allclose(C.apply(a), expected, atol=1e-14)

    def test_zero_twist_is_plain_model_conjugation(self):
        np.testing.assert_allclose(
            conjugation_c_alphabeta(3, 3, 0.0).unitary_part,
            conjugation_c_gamma(6).unitary_part,
            atol=1e-15,
        )

    def test_pi_twist_is_anti_involutive(self):
        assert classify(conjugation_c_alphabeta(2, 2, np.pi)) is InvolutionClass.ANTI_INVOLUTIVE
        assert classify(conjugation_c_alphabeta(3, 3, np.pi)) is InvolutionClass.ANTI_INVOLUTIVE

    def test_generic_twist_is_neither(self):
        assert classify(conjugation_c_alphabeta(2, 2, 0.7)) is InvolutionClass.NEITHER

    def test_adjoint_matches_split_formula(self):
        # the adjoint acts on the other orthogonal splitting: head of size q,
        # tail of size p, with the twist moved to the second block
        p, q, xi = 2, 3, 0.9
        C = conjugation_c_alphabeta(p, q, xi)
        n = p + q
        flip = np.fliplr(np.eye(p))
        flip_q = np.fliplr(np.eye(q))
        expected = np.zeros((n, n), dtype=complex)
        expected[:p, q:] = flip
        expected[p:, :q] = np.exp(1j * xi) * flip_q
        np.testing.assert_allclose(C.adjoint().unitary_part, expected, atol=1e-14)

    def test_mixed_sizes_antiunitary(self, rng):
        C = conjugation_c_alphabeta(1, 4, 0.3)
        psi = random_vector(5, rng)
        assert abs(np.linalg.norm(C.apply(psi)) - 1.0) <= 1e-12

    @pytest.mark.parametrize("p, q", [(0, 2), (2, 0), (-1, 3)])
    def test_empty_or_negative_part_rejected(self, p, q):
        with pytest.raises(ValueError, match="p and q must be at least 1"):
            conjugation_c_alphabeta(p, q, 0.3)


class TestExample1:
    def conjugation(self):
        return conjugation_c_alphabeta(2, 2, np.pi)

    def test_zero_matrix(self):
        report = check_c_selfadjoint(example1_matrix(0, 0, 0, 0, 0, 0), self.conjugation())
        assert report.is_csa

    def test_single_parameter(self):
        H = example1_matrix(1 + 1j, 0, 0, 0, 0, 0)
        assert check_c_selfadjoint(H, self.conjugation()).residual <= 1e-12

    def test_random_parameters(self, rng):
        for _ in range(10):
            params = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            H = example1_matrix(*params)
            assert check_c_selfadjoint(H, self.conjugation()).residual <= 1e-12 * max(1.0, fro(H))

    def test_not_selfadjoint_for_plain_model_conjugation(self, rng):
        params = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        H = example1_matrix(*params)
        assert not check_c_selfadjoint(H, conjugation_c_gamma(4)).is_csa


class TestExample2Conjugation:
    def test_pair_action(self):
        C = example2_conjugation(4)
        a = np.array([1 + 1j, 2.0, 3j, 4 - 1j])
        expected = np.array([-np.conj(a[1]), np.conj(a[0]), -np.conj(a[3]), np.conj(a[2])])
        np.testing.assert_allclose(C.apply(a), expected)

    def test_squares_to_minus_identity(self, rng):
        C = example2_conjugation(6)
        psi = random_vector(6, rng)
        np.testing.assert_allclose(C.apply(C.apply(psi)), -psi, atol=1e-14)

    def test_adjoint_is_negative(self):
        C = example2_conjugation(8)
        assert fro(C.adjoint().unitary_part + C.unitary_part) == 0.0

    def test_odd_dimension_rejected(self):
        with pytest.raises(OddDimension):
            example2_conjugation(5)


class TestExample2Matrix:
    def test_zero(self):
        assert check_c_selfadjoint(example2_matrix(0, 0, 0, 0, 0, 0), example2_conjugation(4)).is_csa

    def test_random_parameters(self, rng):
        for _ in range(10):
            params = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            H = example2_matrix(*params)
            assert check_c_selfadjoint(H, example2_conjugation(4)).residual <= 1e-12 * max(1.0, fro(H))

    def test_pattern_violation_detected(self, rng):
        params = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        H = example2_matrix(*params)
        H[0, 1] = 1.0
        assert check_c_selfadjoint(H, example2_conjugation(4)).residual > 0.5


class TestThetaCondition:
    def test_even_monomial(self):
        assert theta_condition_check({4: 1.0})

    def test_odd_monomial(self):
        assert not theta_condition_check({3: 1.0})

    def test_imaginary_coefficient(self):
        assert not theta_condition_check({2: 1j})

    def test_negative_support_rejected(self):
        with pytest.raises(ValueError):
            theta_condition_check({-1: 1.0})

    @pytest.mark.parametrize("t", [1.0, 1e-12])
    def test_small_symbol_judged_at_its_own_scale(self, t):
        # an imaginary part as large as the symbol itself fails at any scale
        assert not theta_condition_check({0: t, 2: t * 1j})

    def test_large_symbol_judged_at_its_own_scale(self):
        # imaginary part 1e-13 of the symbol's size
        assert theta_condition_check({0: 1e6, 2: 1e6 + 1e-7j})

    def test_scaling_leaves_the_outcome(self, rng):
        families = []
        for _ in range(4):
            real_even = {n: float(rng.standard_normal()) for n in (0, 2, 4, 6)}
            size = max(map(abs, real_even.values()))  # imaginary parts relative to it
            families.append((real_even, True))
            families.append(({**real_even, 2: real_even[2] + 1e-13j * size}, True))
            families.append(({**real_even, 2: real_even[2] + 1e-9j * size}, False))
            families.append(({**real_even, 3: 0.5 * size}, False))
        for theta, valid in families:
            assert [theta_condition_check(scaled(theta, t)) for t in SCALES] == [valid] * len(SCALES)

    @pytest.mark.parametrize("bad", [np.inf, np.nan, complex(0, np.inf)])
    def test_non_finite_coefficient_raises(self, bad):
        with pytest.raises(NonFinite):
            theta_condition_check({0: 1.0, 2: bad})

    def test_matches_circle_sampling_oracle(self, rng):
        # sample the defining identities at 64 unit-circle points
        z = np.exp(2j * np.pi * np.arange(64) / 64)
        for _ in range(20):
            theta = random_symbol(rng, range(0, 7), density=0.5)
            if rng.uniform() < 0.5:  # make some symbols satisfy the condition
                theta = {n: complex(c.real, 0.0) for n, c in theta.items() if n % 2 == 0}
            at_conj = evaluate_symbol(theta, np.conj(z))
            at_neg_conj = evaluate_symbol(theta, -np.conj(z))
            conj_at = np.conj(evaluate_symbol(theta, z))
            sampled = bool(
                np.max(np.abs(at_conj - at_neg_conj), initial=0.0) <= 1e-10
                and np.max(np.abs(at_conj - conj_at), initial=0.0) <= 1e-10
            )
            assert theta_condition_check(theta) == sampled


def build_T_by_entry(phi1, phi2, N):
    """Reference for build_T: one dictionary lookup per matrix entry."""
    T = np.zeros((N, N), dtype=complex)
    for n in range(N):
        phi = phi1 if n % 2 == 0 else phi2
        for m in range(N):
            T[m, n] = phi.get(m - n, 0.0)
    return T


def block_check_by_identity(B, tol=DEFAULT_TOL):
    """Reference for block_antiunitary_check: the twelve block identities
    written out, with D = B o K composing as D_i D_j* -> B_i B_j^dag,
    D_i* D_j -> B_i^T conj(B_j), D_i D_j -> B_i conj(B_j)."""
    b1, b2 = B.d11.matrix, B.d12.matrix
    b3, b4 = B.d21.matrix, B.d22.matrix
    eye = np.eye(B.d11.dim)
    unitary_residuals = [
        fro(b1 @ b1.conj().T + b2 @ b2.conj().T - eye),
        fro(b3 @ b3.conj().T + b4 @ b4.conj().T - eye),
        fro(b1 @ b3.conj().T + b2 @ b4.conj().T),
        fro(b1.T @ np.conj(b1) + b3.T @ np.conj(b3) - eye),
        fro(b2.T @ np.conj(b2) + b4.T @ np.conj(b4) - eye),
        fro(b1.T @ np.conj(b2) + b3.T @ np.conj(b4)),
    ]
    anti_residuals = [
        fro(b1 + b1.T),
        fro(b4 + b4.T),
        fro(b3 + b2.T),
        fro(b2 @ b2.conj().T - b1 @ np.conj(b1) - eye),
        fro(b2.T @ np.conj(b2) - b4 @ np.conj(b4) - eye),
        fro(b1 @ np.conj(b2) + b2 @ np.conj(b4)),
    ]
    bound = tol.bound(1.0)
    return max(unitary_residuals) <= bound, max(anti_residuals) <= bound


class TestBuildT:
    @pytest.mark.parametrize("N", [1, 5, 8])
    @pytest.mark.parametrize("density", [1.0, 0.3, 0.0])
    def test_matches_entrywise_reference(self, N, density, rng):
        phi1 = random_symbol(rng, range(-9, 10), density)
        phi2 = random_symbol(rng, range(-2, 3), density)
        np.testing.assert_array_equal(build_T(phi1, phi2, N), build_T_by_entry(phi1, phi2, N))

    def test_equal_symbols_give_toeplitz(self, rng):
        phi = random_symbol(rng, range(-3, 4))
        T = build_T(phi, phi, 6)
        expected = np.array([[phi.get(m - n, 0.0) for n in range(6)] for m in range(6)])
        np.testing.assert_allclose(T, expected)

    def test_parity_selection(self):
        T = build_T({2: 1.0}, {-2: 1.0}, 4)
        expected = np.zeros((4, 4))
        expected[2, 0] = 1.0
        expected[1, 3] = 1.0
        np.testing.assert_allclose(T, expected)

    def test_constant_and_zero(self):
        np.testing.assert_allclose(build_T({0: 1.0}, {}, 2), np.diag([1.0, 0.0]))

    def test_empty_compression_rejected(self):
        with pytest.raises(ValueError, match="N must be at least 1"):
            build_T({0: 1.0}, {1: 2.0}, 0)

    def test_coefficients_recoverable_from_columns(self, rng):
        # reading the matrix columns reproduces every stored coefficient
        # whose index fits in the window, so T = 0 forces both symbols to
        # vanish there
        s = 3
        phi1 = random_symbol(rng, range(-s, s + 1))
        phi2 = random_symbol(rng, range(-s, s + 1))
        N = 2 * s + 2
        T = build_T(phi1, phi2, N)
        # the two middle columns {s, s+1} reach every index in [-s, s]
        col_even, col_odd = (s, s + 1) if s % 2 == 0 else (s + 1, s)
        for idx in range(-s, s + 1):
            assert T[idx + col_even, col_even] == phi1.get(idx, 0.0)
            assert T[idx + col_odd, col_odd] == phi2.get(idx, 0.0)

    def test_distinct_symbols_distinct_matrices(self, rng):
        s = 2
        N = 2 * s + 2
        phi1 = random_symbol(rng, range(-s, s + 1), density=1.0)
        phi2 = random_symbol(rng, range(-s, s + 1), density=1.0)
        tweaked = dict(phi1)
        tweaked[0] = tweaked.get(0, 0.0) + 0.5
        assert fro(build_T(phi1, phi2, N) - build_T(tweaked, phi2, N)) > 0.1

    def test_adjoint_is_transformed_compression(self, rng):
        # T(phi1, phi2)* equals T(psi1, psi2) for the symbol pair obtained
        # from conj(phi(z)) and conj(phi(-z)); this pins the even/odd index
        # bookkeeping against an independent identity
        def bar(phi):  # z -> conj(phi(z)) at the coefficient level
            return {-n: np.conj(c) for n, c in phi.items()}

        def flip(phi):  # z -> phi(-z)
            return {n: (-1) ** n * c for n, c in phi.items()}

        def mix(*weighted):
            out = {}
            for w, phi in weighted:
                for n, c in phi.items():
                    out[n] = out.get(n, 0.0) + w * c
            return out

        for _ in range(5):
            phi1 = random_symbol(rng, range(-3, 4))
            phi2 = random_symbol(rng, range(-3, 4))
            a, b = bar(phi1), bar(phi2)
            psi1 = mix((0.5, a), (0.5, b), (0.5, flip(a)), (-0.5, flip(b)))
            psi2 = mix((0.5, a), (0.5, b), (-0.5, flip(a)), (0.5, flip(b)))
            for N in (5, 8):
                lhs = build_T(phi1, phi2, N).conj().T
                rhs = build_T(psi1, psi2, N)
                assert fro(lhs - rhs) <= 1e-12


class TestConditionAnd:
    def test_paired_quadratic_symbols(self):
        assert check_condition_and({2: 1.0}, {-2: 1.0})

    def test_constant_symbols(self):
        assert check_condition_and({0: 1.0}, {0: 1.0})

    def test_linear_fails(self):
        assert not check_condition_and({1: 1.0}, {})

    @pytest.mark.parametrize("t", [1.0, 1e-12])
    def test_small_violation_judged_at_its_own_scale(self, t):
        assert not check_condition_and({0: t, 1: 0.3j * t}, {2: 0.7 * t})
        assert check_condition_and({2: t}, {-2: t})

    def test_sufficient_condition_family(self, rng):
        # phi1 with even frequencies and phi2(z) = phi1(conj z) always satisfy it
        for _ in range(10):
            phi1 = random_symbol(rng, [-4, -2, 0, 2, 4])
            phi2 = {-n: c for n, c in phi1.items()}
            assert check_condition_and(phi1, phi2)

    def test_implies_compression_selfadjointness(self, rng):
        phi1 = {2: 1.0}
        phi2 = {-2: 1.0}
        for N in (4, 6, 8):
            T = build_T(phi1, phi2, N)
            report = check_c_selfadjoint(T, example2_conjugation(N))
            assert report.residual <= 1e-10
        for _ in range(5):
            phi1 = random_symbol(rng, [-2, 0, 2])
            phi2 = {-n: c for n, c in phi1.items()}
            assert check_condition_and(phi1, phi2)
            N = 2 * max_support(phi1) + 2
            T = build_T(phi1, phi2, N)
            assert check_c_selfadjoint(T, example2_conjugation(N)).residual <= 1e-10 * max(
                1.0, fro(T)
            )

    def test_large_symbols_judged_at_their_own_scale(self):
        # the two coefficients differ by about 1e-16 relative
        assert check_condition_and({2: 1e8 * 0.3}, {-2: 1e8 * (0.1 + 0.2)})

    @pytest.mark.parametrize("bad", [np.inf, np.nan, complex(np.nan, 0)])
    def test_non_finite_coefficient_raises(self, bad):
        with pytest.raises(NonFinite):
            check_condition_and({0: bad}, {})

    def test_valid_construction(self, rng):
        for K in range(0, 6):
            phi1, phi2 = valid_symbol_pair(rng, K)
            assert max(map(max_support, (phi1, phi2)), default=0) <= K + 1
            assert check_condition_and(phi1, phi2)
            assert condition_and_by_sampling(phi1, phi2)

    def test_accepts_all_that_sampling_accepts(self):
        # valid constructions, perturbations of them and unstructured pairs, support up to 6
        rng = np.random.default_rng(2718)
        counts = {"both": 0, "neither": 0, "only_coefficients": 0}
        for trial in range(600):
            K = trial % 6
            phi1, phi2 = valid_symbol_pair(rng, K)
            kind = trial % 3
            if kind == 1:  # one coefficient moved by 1e-14 ... 1e-6
                target = phi1 if rng.uniform() < 0.5 else phi2
                n = int(rng.integers(-K - 1, K + 2))
                target[n] = target.get(n, 0) + 10.0 ** rng.uniform(-14, -6) * np.exp(2j * np.pi * rng.uniform())
            elif kind == 2:
                phi1, phi2 = (random_symbol(rng, range(-6, 7), density=0.4) for _ in range(2))
            sampled, coefficients = condition_and_by_sampling(phi1, phi2), check_condition_and(phi1, phi2)
            assert coefficients or not sampled, (phi1, phi2)
            counts["both" if sampled else "only_coefficients" if coefficients else "neither"] += 1
        assert counts["both"] >= 250 and counts["neither"] >= 250

    def test_scaling_leaves_the_outcome(self):
        rng = np.random.default_rng(31)
        families = [(({2: 0.3}, {-2: 0.1 + 0.2}), True), (({0: 1.0, 1: 0.3j}, {2: 0.7}), False)]
        for K in range(6):
            phi1, phi2 = valid_symbol_pair(rng, K)
            families.append(((phi1, phi2), True))
            families.append(((phi1, {**phi2, K - 1: phi2.get(K - 1, 0) + 1e-6}), False))
            families.append(((random_symbol(rng, range(-6, 7)), random_symbol(rng, range(-6, 7))), False))
        for (phi1, phi2), valid in families:
            outcomes = [check_condition_and(scaled(phi1, t), scaled(phi2, t)) for t in SCALES]
            assert outcomes == [valid] * len(SCALES), (phi1, phi2)

    def test_violating_pair_gives_non_selfadjoint_compression(self):
        phi1, phi2 = {1: 1.0}, {}
        assert not check_condition_and(phi1, phi2)
        T = build_T(phi1, phi2, 6)
        assert not check_c_selfadjoint(T, example2_conjugation(6)).is_csa


class TestBlockAntilinear:
    def test_halved_mixing_block(self):
        # (1/sqrt 2) [[-D, D], [D, D]] with D anti-involutive antiunitary is
        # again antiunitary and anti-involutive
        D = MINUS_I_SIGMA2
        r = 1.0 / np.sqrt(2.0)
        B = BlockAntilinear.from_matrices(-r * D, r * D, r * D, r * D)
        assert block_antiunitary_check(B) == (True, True)
        # and so is its assembled matrix, squared to -I
        M = B.assembled()
        np.testing.assert_allclose(M.squared(), -np.eye(4), atol=1e-14)

    def test_offdiagonal_pairing_without_normalization(self):
        # blocks 0, K, -K, 0 assemble to an anti-involutive antiunitary as is;
        # adding a 1/sqrt(2) factor would break antiunitarity
        eye = np.eye(3)
        B = BlockAntilinear.from_matrices(0 * eye, eye, -eye, 0 * eye)
        assert block_antiunitary_check(B) == (True, True)
        scaled = BlockAntilinear.from_matrices(
            0 * eye, eye / np.sqrt(2), -eye / np.sqrt(2), 0 * eye
        )
        assert block_antiunitary_check(scaled) == (False, False)

    def test_zero_blocks(self):
        zero = np.zeros((2, 2))
        assert block_antiunitary_check(BlockAntilinear.from_matrices(zero, zero, zero, zero)) == (
            False,
            False,
        )

    def test_empty_blocks(self):
        # as classify (involutive) and prop11_check (C-self-adjoint) at dimension 0
        empty = np.zeros((0, 0))
        assert block_antiunitary_check(BlockAntilinear.from_matrices(empty, empty, empty, empty)) == (True, True)
        assert classify(AntiunitaryOp(empty)) is InvolutionClass.INVOLUTIVE
        assert prop11_check(empty, AntiunitaryOp(empty), 1.0).is_csa

    def test_mixed_dimensions_rejected(self):
        eye, small = np.eye(3), np.eye(2)
        with pytest.raises(DimMismatch, match=r"mixed dimensions \[2, 3\]"):
            BlockAntilinear.from_matrices(eye, eye, small, eye)

    def test_involutive_diagonal_is_not_anti_involutive(self):
        eye = np.eye(2)
        B = BlockAntilinear.from_matrices(eye, 0 * eye, 0 * eye, eye)
        assert block_antiunitary_check(B) == (True, False)

    def test_bound_applies_to_whole_blocks(self):
        # each 3x3 block of M M* - I has norm sqrt(3 / 2.5) = 1.10 times the
        # bound; one entry taken across all four blocks, sqrt(2 / 2.5) = 0.89
        eye = np.eye(3)
        s = np.sqrt(1 + DEFAULT_TOL.bound(1.0) / np.sqrt(2.5))
        B = BlockAntilinear.from_matrices(0 * eye, s * eye, -s * eye, 0 * eye)
        assert block_antiunitary_check(B) == block_check_by_identity(B) == (False, False)

    @pytest.mark.parametrize("kind", ["unitary", "anti-involutive", "involutive", "gaussian"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_twelve_identities(self, kind, n, rng):
        U = haar_unitary(2 * n, rng)
        G = rng.standard_normal((2 * n, 2 * n)) + 1j * rng.standard_normal((2 * n, 2 * n))
        M = {
            "unitary": U,
            "anti-involutive": U @ np.kron(np.eye(n), MINUS_I_SIGMA2) @ U.T,
            "involutive": U @ U.T,
            "gaussian": G,
        }[kind]
        for scale in (1.0, 1.0 + 1e-9):
            blocks = (scale * M[:n, :n], scale * M[:n, n:], scale * M[n:, :n], scale * M[n:, n:])
            B = BlockAntilinear.from_matrices(*blocks)
            assert block_antiunitary_check(B) == block_check_by_identity(B)


class TestProp11:
    def test_antisymmetric_real_generator(self):
        p = np.array([[0.0, 1.0], [-1.0, 0.0]])
        report = prop11_check(p, conjugation_k(2), 3.0)
        assert report.is_csa

    def test_zero_generator(self):
        for alpha in (-1.0, 0.0, 2.5):
            assert prop11_check(np.zeros((2, 2)), conjugation_k(2), alpha).is_csa

    def test_identity_violates_hypothesis(self):
        with pytest.raises(HypothesisViolated):
            prop11_check(np.eye(2), conjugation_k(2), 1.0)

    def test_non_involutive_d2_rejected(self):
        with pytest.raises(HypothesisViolated):
            prop11_check(np.zeros((2, 2)), AntiunitaryOp(MINUS_I_SIGMA2), 1.0)

    def test_d2_of_another_dimension_rejected(self):
        with pytest.raises(DimMismatch, match="D2 and p have different dimensions"):
            prop11_check(np.zeros((2, 2)), conjugation_k(3), 1.0)

    def test_complex_generator(self, rng):
        # any p with conj(p) = -p* i.e. p purely imaginary Hermitian? no:
        # K p K = conj(p) must equal -p*, i.e. p antisymmetric (complex)
        M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        p = 0.5 * (M - M.T)
        assert prop11_check(p, conjugation_k(3), -0.7).is_csa

    def test_scaling_leaves_the_outcome(self, rng):
        # with D2 = V V^T, p = V q V* meets D2 p D2 = -p* for antisymmetric q
        V = haar_unitary(3, rng)
        M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        q, D2 = M - M.T, AntiunitaryOp(V @ V.T)
        cases = [
            (np.array([[0.0, 1.0], [-1.0, 0.0]]), conjugation_k(2), True),
            (V @ q @ V.conj().T, D2, True),
            (np.array([[1e-3, 1.0], [-1.0, 1e-3]]), conjugation_k(2), False),  # defect 2e-3 ||p||_F
            (V @ (q + 1e-6 * M) @ V.conj().T, D2, False),
        ]

        def outcome(p, D2):
            try:
                return prop11_check(p, D2, 3.0).is_csa
            except HypothesisViolated:
                return "violated"
            except NonFinite:  # ||p^2||_F overflows in the block matrix
                return "overflow"

        for p, D2, valid in cases:
            holds = [True if t <= 1e150 else "overflow" for t in SCALES]
            expected = holds if valid else ["violated"] * len(SCALES)
            assert [outcome(t * p, D2) for t in SCALES] == expected
