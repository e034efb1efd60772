import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csaop import (
    AntilinearMap,
    AntiunitaryOp,
    DimMismatch,
    InvolutionClass,
    NotUnitary,
    classify,
    compose_antilinear,
    conjugate_linear_map,
    conjugation_k,
    phase_fix,
)
from csaop.antiunitary import UNITARITY_TOL
from csaop.linalg import fro
from csaop.pauli import MINUS_I_SIGMA2

from conftest import haar_unitary, random_antiunitary, random_matrix, random_vector


def c2():
    return AntiunitaryOp(MINUS_I_SIGMA2)


class TestApply:
    def test_plain_conjugation(self):
        out = conjugation_k(2).apply([1 + 1j, 2.0])
        np.testing.assert_allclose(out, [1 - 1j, 2.0])

    def test_c2_on_basis_vector(self):
        np.testing.assert_allclose(c2().apply([1.0, 0.0]), [0.0, 1.0])

    def test_c2_twice_negates(self, rng):
        psi = random_vector(2, rng)
        np.testing.assert_allclose(c2().apply(c2().apply(psi)), -psi, atol=1e-14)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            conjugation_k(2).apply([1.0, 2.0, 3.0])

    def test_isometry(self, rng):
        C = random_antiunitary(6, seed=3)
        for _ in range(20):
            psi = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            assert abs(np.linalg.norm(C.apply(psi)) - np.linalg.norm(psi)) <= 1e-12 * np.linalg.norm(psi)

    @settings(max_examples=50, deadline=None)
    @given(
        re=st.floats(-5, 5, allow_nan=False),
        im=st.floats(-5, 5, allow_nan=False),
    )
    def test_antihomogeneity(self, re, im):
        alpha = complex(re, im)
        C = c2()
        psi = np.array([0.3 - 0.7j, 1.1 + 0.2j])
        np.testing.assert_allclose(
            C.apply(alpha * psi), np.conj(alpha) * C.apply(psi), atol=1e-12
        )

    def test_additivity(self, rng):
        C = random_antiunitary(4, seed=11)
        phi, psi = random_vector(4, rng), random_vector(4, rng)
        np.testing.assert_allclose(
            C.apply(phi + psi), C.apply(phi) + C.apply(psi), atol=1e-14
        )


class TestAdjoint:
    def test_conjugation_self_adjoint(self):
        K = conjugation_k(3)
        np.testing.assert_allclose(K.adjoint().unitary_part, np.eye(3))

    def test_c2_adjoint_matrix(self):
        np.testing.assert_allclose(
            c2().adjoint().unitary_part, np.array([[0.0, 1.0], [-1.0, 0.0]])
        )

    def test_adjoint_identity_random(self, rng):
        # (phi, C psi) = conj((C* phi, psi)) and (phi, C psi) = (psi, C^-1 phi)
        C = random_antiunitary(5, seed=7)
        Cs = C.adjoint()
        for _ in range(100):
            phi, psi = random_vector(5, rng), random_vector(5, rng)
            lhs = np.vdot(phi, C.apply(psi))
            assert abs(lhs - np.conj(np.vdot(Cs.apply(phi), psi))) <= 1e-10
            assert abs(lhs - np.vdot(psi, C.apply_inverse(phi))) <= 1e-10

    @pytest.mark.parametrize("plain", [True, False], ids=["antilinear-map", "antiunitary"])
    def test_adjoint_keeps_the_type(self, plain, rng):
        # AntiunitaryOp inherits adjoint(): type(self)(A.T) validates C^-1
        D = AntilinearMap(random_matrix(4, rng)) if plain else random_antiunitary(4, seed=3)
        Ds = D.adjoint()
        assert type(Ds) is type(D)
        phi, psi = random_vector(4, rng), random_vector(4, rng)
        assert abs(np.vdot(phi, D.apply(psi)) - np.conj(np.vdot(Ds.apply(phi), psi))) <= 1e-10

    def test_adjoint_inverts(self, rng):
        C = random_antiunitary(6, seed=19)
        psi = random_vector(6, rng)
        np.testing.assert_allclose(C.adjoint().apply(C.apply(psi)), psi, atol=1e-10)


class TestClassify:
    def test_conjugation_involutive(self):
        assert classify(conjugation_k(4)) is InvolutionClass.INVOLUTIVE

    def test_c2_anti_involutive(self):
        assert classify(c2()) is InvolutionClass.ANTI_INVOLUTIVE

    def test_neither(self):
        A = np.array([[0.0, 1.0], [np.exp(1j * np.pi / 3), 0.0]])
        C = AntiunitaryOp(A)
        # direct 2x2 product: A conj(A) = diag(e^{-i pi/3}, e^{i pi/3})
        np.testing.assert_allclose(
            C.squared(), np.diag([np.exp(-1j * np.pi / 3), np.exp(1j * np.pi / 3)])
        )
        assert classify(C) is InvolutionClass.NEITHER

    def test_involution_action(self, rng):
        psi = random_vector(4, rng)
        K = conjugation_k(4)
        np.testing.assert_allclose(K.apply(K.apply(psi)), psi, atol=1e-14)
        C = AntiunitaryOp(np.kron(np.eye(2), MINUS_I_SIGMA2))
        np.testing.assert_allclose(C.apply(C.apply(psi)), -psi, atol=1e-14)


class TestConjugateLinearMap:
    def test_with_plain_conjugation(self, rng):
        H = random_matrix(3, rng)
        np.testing.assert_allclose(conjugate_linear_map(conjugation_k(3), H), np.conj(H))

    def test_c2_formula(self):
        # multiply A conj(H) A* out by hand for A = [[0,-1],[1,0]]
        a, b, c, d = 1 + 2j, 3 - 1j, 0.5j, -2.0
        H = np.array([[a, b], [c, d]])
        expected = np.array(
            [[np.conj(d), -np.conj(c)], [-np.conj(b), np.conj(a)]]
        )
        np.testing.assert_allclose(conjugate_linear_map(c2(), H), expected)

    def test_identity_fixed(self):
        C = random_antiunitary(4, seed=2)
        np.testing.assert_allclose(conjugate_linear_map(C, np.eye(4)), np.eye(4), atol=1e-14)

    def test_adjoint_compatibility(self, rng):
        # (C H C^-1)* = C H* C^-1
        C = random_antiunitary(5, seed=23)
        H = random_matrix(5, rng)
        lhs = conjugate_linear_map(C, H).conj().T
        rhs = conjugate_linear_map(C, H.conj().T)
        assert fro(lhs - rhs) <= 1e-10 * fro(H)


class TestCompose:
    def test_with_identity(self):
        K = conjugation_k(2)
        out = compose_antilinear(K, np.eye(2))
        assert isinstance(out, AntiunitaryOp)
        np.testing.assert_allclose(out.unitary_part, np.eye(2))

    def test_with_real_swap(self):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = compose_antilinear(conjugation_k(2), swap)
        np.testing.assert_allclose(out.unitary_part, swap)

    def test_c2_with_identity(self):
        out = compose_antilinear(c2(), np.eye(2))
        np.testing.assert_allclose(out.unitary_part, MINUS_I_SIGMA2)

    def test_partial_isometry_degrades_gracefully(self):
        out = compose_antilinear(conjugation_k(2), np.diag([1.0, 0.0]))
        assert isinstance(out, AntilinearMap)
        assert not isinstance(out, AntiunitaryOp)

    def test_action_matches_composition(self, rng):
        C = random_antiunitary(4, seed=5)
        U = random_antiunitary(4, seed=6).unitary_part
        J = compose_antilinear(C, U)
        psi = random_vector(4, rng)
        np.testing.assert_allclose(J.apply(psi), C.apply(U @ psi), atol=1e-13)


@pytest.mark.parametrize(
    "call",
    [
        lambda C: C.apply_inverse(np.ones(3)),
        lambda C: conjugate_linear_map(C, np.eye(3)),
        lambda C: compose_antilinear(C, np.eye(3)),
        lambda C: phase_fix(C, np.ones((3, 1)) / np.sqrt(3)),
    ],
    ids=["apply_inverse", "conjugate_linear_map", "compose_antilinear", "phase_fix"],
)
def test_dimension_mismatch(call):
    with pytest.raises(DimMismatch):
        call(conjugation_k(2))


def test_constructor_rejects_nonunitary():
    with pytest.raises(NotUnitary):
        AntiunitaryOp(np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_matrix_is_immutable():
    C = conjugation_k(2)
    with pytest.raises(ValueError):
        C.unitary_part[0, 0] = 5.0


class TestUnitarityCheck:
    @pytest.mark.parametrize("n", [2, 7, 64])
    def test_gram_deviations_agree(self, n, rng):
        # both equal sqrt(sum (s_i^2 - 1)^2) over the singular values of A,
        # so the constructor computes only the first
        A = random_matrix(n, rng) / np.sqrt(n)
        left = fro(A.conj().T @ A - np.eye(n))
        right = fro(A @ A.conj().T - np.eye(n))
        assert abs(left - right) <= 1e-12 * left

    @pytest.mark.parametrize("scale, unitary", [(1 + 1e-9, False), (1 + 1e-12, True)])
    def test_scaled_column(self, scale, unitary, rng):
        A = haar_unitary(16, rng)
        A[:, 5] *= scale
        if unitary:
            assert isinstance(AntiunitaryOp(A), AntiunitaryOp)
        else:
            with pytest.raises(NotUnitary, match="deviates from unitarity by 2.000e-09"):
                AntiunitaryOp(A)


class TestPermutedBlocks:
    """The factor check of a lifted conjugation against the dense one."""

    @pytest.mark.parametrize("m", [1, 2, 80, 601])
    @pytest.mark.parametrize("ratio", [1 - 1e-3, 1 + 1e-3, 1e-4, 1e3])
    @pytest.mark.parametrize("grow", [True, False])
    def test_same_decision_and_message_as_dense(self, m, ratio, grow, rng):
        # block s U with ||(sU)*(sU) - I||_F = sqrt(2) |s^2 - 1|, scaled so
        # that sqrt(m) times it is ratio * UNITARITY_TOL
        gap = ratio * UNITARITY_TOL / np.sqrt(2 * m)
        block = np.sqrt(1 + gap if grow else 1 - gap) * haar_unitary(2, rng)
        partner = rng.permutation(m)
        R = np.eye(m)[:, partner]
        try:
            dense = AntiunitaryOp(np.kron(R, block))
        except NotUnitary as expected:
            assert ratio > 1
            with pytest.raises(NotUnitary) as got:
                AntiunitaryOp.permuted_blocks(partner, block)
            assert str(got.value) == str(expected)
        else:
            assert ratio < 1
            lifted = AntiunitaryOp.permuted_blocks(partner, block)
            assert lifted.unitary_part.tobytes() == dense.unitary_part.tobytes()
            assert not lifted.unitary_part.flags.writeable

    @pytest.mark.parametrize(
        "partner", [[0, 0], [1, 2], [-1, 0], np.array([1.0, 0.0]), [[0, 1]], 0],
        ids=["repeated", "out-of-range", "negative", "float", "2-d", "scalar"],
    )
    def test_partner_must_be_a_permutation(self, partner):
        with pytest.raises(ValueError, match="permutation"):
            AntiunitaryOp.permuted_blocks(partner, MINUS_I_SIGMA2)

    def test_empty(self):
        C = AntiunitaryOp.permuted_blocks(np.arange(0), MINUS_I_SIGMA2)
        assert C.unitary_part.shape == (0, 0) and C.dim == 0

    def test_nan_gram_deviation_fails(self):
        # the Gram product of this finite matrix is inf - inf = NaN
        A = np.array([[1e200, 1e200], [1e200, -1e200]])
        with np.errstate(all="ignore"):
            with pytest.raises(NotUnitary, match="nan"):
                AntiunitaryOp(A)
            with pytest.raises(NotUnitary, match="nan"):
                AntiunitaryOp.permuted_blocks([0], A)
