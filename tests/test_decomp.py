import warnings

import numpy as np
import pytest

from csaop import (
    AntilinearMap,
    AntiunitaryOp,
    InvolutionClass,
    NonFinite,
    NotCsa,
    NotInvariant,
    NotInvolutive,
    NotUnitary,
    NumericalFailure,
    UnsupportedDegeneracy,
    classify,
    fix_basis_involutive,
    generate_csa,
    phase_fix,
    refined_polar,
    refined_svd,
)
from csaop import decomp
from csaop.decomp import SVD_CLUSTER_GAP
from csaop.linalg import DEFAULT_TOL, cluster_indices, fro, rank_cutoff
from csaop.pauli import MINUS_I_SIGMA2

from conftest import (
    c2_blocks,
    conj_k,
    haar_unitary,
    neither_simple_case,
    overflowing_csa,
    random_antiunitary,
    random_matrix,
    random_vector,
    symmetrized_csa,
)


def corpus():
    """(H, C, kind) triples covering involutive, anti-involutive and
    generic antiunitary symmetries across a range of dimensions."""
    cases = []
    for dim, seed in [(2, 0), (5, 1), (9, 2), (16, 3)]:
        C = conj_k(dim)
        cases.append((generate_csa(C, seed), C, InvolutionClass.INVOLUTIVE))
    for dim, seed in [(2, 4), (6, 5), (12, 6)]:
        C = c2_blocks(dim)
        cases.append((generate_csa(C, seed), C, InvolutionClass.ANTI_INVOLUTIVE))
    for dim, seed in [(3, 7), (5, 8), (10, 9)]:
        C = random_antiunitary(dim, seed=100 + dim)
        cases.append((generate_csa(C, seed), C, InvolutionClass.NEITHER))
    # larger dimensions through the independent averaging construction
    rng = np.random.default_rng(77)
    for dim, C in [(24, conj_k(24)), (32, c2_blocks(32))]:
        cases.append((symmetrized_csa(random_matrix(dim, rng), C), C, classify(C)))
    return cases




class TestRefinedPolar:
    def test_diagonal_with_conjugation(self):
        polar = refined_polar(np.diag([2.0, 3.0]), conj_k(2))
        np.testing.assert_allclose(polar.absH, np.diag([2.0, 3.0]), atol=1e-14)
        np.testing.assert_allclose(polar.U, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(polar.J.matrix, np.eye(2), atol=1e-14)

    def test_real_swap(self):
        H = np.array([[0.0, 1.0], [1.0, 0.0]])
        polar = refined_polar(H, conj_k(2))
        np.testing.assert_allclose(polar.absH, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(polar.U, H, atol=1e-14)
        np.testing.assert_allclose(polar.J.matrix, H, atol=1e-14)
        np.testing.assert_allclose(polar.J.squared(), np.eye(2), atol=1e-14)

    def test_scaled_identity_anti_involutive(self):
        C = AntiunitaryOp(MINUS_I_SIGMA2)
        polar = refined_polar(2.0 * np.eye(2), C)
        np.testing.assert_allclose(polar.absH, 2.0 * np.eye(2), atol=1e-14)
        np.testing.assert_allclose(polar.U, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(polar.J.matrix, MINUS_I_SIGMA2, atol=1e-14)
        np.testing.assert_allclose(polar.J.squared(), -np.eye(2), atol=1e-14)

    def test_requires_csa(self):
        with pytest.raises(NotCsa):
            refined_polar(np.array([[0.0, 1.0], [0.0, 0.0]]), conj_k(2))

    @pytest.mark.parametrize("case", range(12))
    def test_corpus_invariants(self, case, rng):
        H, C, kind = corpus()[case]
        scale = fro(H)
        polar = refined_polar(H, C)
        B = polar.J.matrix

        # operational reconstruction H psi = C^-1 (J (|H| psi))
        for _ in range(10):
            psi = random_vector(H.shape[0], rng)
            lhs = H @ psi
            rhs = C.apply_inverse(polar.J.apply(polar.absH @ psi))
            assert np.linalg.norm(lhs - rhs) <= 1e-8 * scale

        # commutation J |H| = |H| J
        assert fro(B @ np.conj(polar.absH) - polar.absH @ B) <= 1e-8 * scale

        # the polar partial isometry inherits C-self-adjointness on range(|H|)
        s = np.linalg.svd(H, compute_uv=False)
        keep = s > rank_cutoff(s)
        proj = polar.U.conj().T @ polar.U  # projector onto range(|H|)
        from csaop import conjugate_linear_map

        defect = (conjugate_linear_map(C, polar.U) - polar.U.conj().T) @ proj
        assert fro(defect) <= 1e-8 * max(1.0, scale)

        # J inherits the involution class of C on range(|H|)
        if kind is InvolutionClass.INVOLUTIVE:
            assert fro((polar.J.squared() - np.eye(len(s))) @ proj) <= 1e-8
        elif kind is InvolutionClass.ANTI_INVOLUTIVE:
            assert fro((polar.J.squared() + np.eye(len(s))) @ proj) <= 1e-8

    def test_rank_deficient(self):
        # kernel direction is annihilated by U and J
        H = np.diag([2.0, 0.0])
        polar = refined_polar(H, conj_k(2))
        np.testing.assert_allclose(polar.U, np.diag([1.0, 0.0]), atol=1e-14)
        assert np.linalg.norm(polar.J.apply([0.0, 1.0])) <= 1e-14
        np.testing.assert_allclose(polar.U @ polar.absH, H, atol=1e-14)


class TestPhaseFix:
    def test_already_fixed(self):
        psi = np.array([1.0, 0.0])
        np.testing.assert_allclose(phase_fix(conj_k(2), psi), psi)

    def test_conjugation_of_imaginary_vector(self):
        # K(i e1) = -i e1 = e^{i pi} (i e1), so the half-phase gives
        # phi = e^{i pi/2} (i e1) = -e1, which K fixes
        phi = phase_fix(conj_k(2), np.array([1j, 0.0]))
        np.testing.assert_allclose(phi, [-1.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(np.conj(phi), phi, atol=1e-14)

    def test_quarter_turn(self):
        J = AntilinearMap(np.array([[np.exp(1j * np.pi / 2)]]))
        phi = phase_fix(J, np.array([1.0]))
        np.testing.assert_allclose(phi, [np.exp(1j * np.pi / 4)], atol=1e-14)
        np.testing.assert_allclose(J.apply(phi), phi, atol=1e-14)

    def test_not_invariant(self):
        with pytest.raises(NotInvariant):
            phase_fix(AntiunitaryOp(MINUS_I_SIGMA2), np.array([1.0, 0.0]))

    def test_random_invariant_lines(self, rng):
        C = conj_k(5)
        for _ in range(10):
            psi = random_vector(5, rng)
            # make the line K-invariant: v + Kv spans one
            v = psi + np.conj(psi)
            if np.linalg.norm(v) < 1e-6:
                continue
            v = v / np.linalg.norm(v)
            phi = phase_fix(C, v * np.exp(1j * rng.uniform(0, 2 * np.pi)))
            assert np.linalg.norm(C.apply(phi) - phi) <= 1e-10


    @pytest.mark.parametrize("seed", range(3))
    def test_columns_match_single_vectors(self, seed):
        # C = U U^T o K fixes U x for real x; random phases unfix the lines
        rng = np.random.default_rng(seed)
        n, k = 12, 5
        U = haar_unitary(n, rng)
        C = AntiunitaryOp(U @ U.T)
        X = U @ rng.standard_normal((n, k))
        X = X / np.linalg.norm(X, axis=0) * np.exp(2j * np.pi * rng.uniform(size=k))
        batch = phase_fix(C, X)
        assert batch.shape == (n, k)
        assert fro(C.unitary_part @ np.conj(batch) - batch) <= 1e-10
        for j in range(k):
            single = phase_fix(C, X[:, j])
            np.testing.assert_allclose(batch[:, j], single, atol=1e-14)
            # a one-column fixed basis is the phase fix of that column
            one = fix_basis_involutive(C, X[:, j : j + 1])
            np.testing.assert_allclose(one[:, 0], single, atol=1e-12)
        with pytest.raises(NotInvariant):
            phase_fix(C, np.column_stack([X[:, 0], rng.standard_normal(n) / np.sqrt(n)]))


class TestFixBasisInvolutive:
    def test_identity_basis_already_fixed(self):
        out = fix_basis_involutive(conj_k(2), np.eye(2))
        np.testing.assert_allclose(out, np.eye(2), atol=1e-14)

    def test_imaginary_line_falls_back(self):
        out = fix_basis_involutive(conj_k(2), np.array([[1j], [0.0]]))
        assert abs(abs(out[0, 0]) - 1.0) <= 1e-14
        np.testing.assert_allclose(np.conj(out), out, atol=1e-14)

    def test_swap_conjugation_plane(self):
        # deterministic greedy output for J = swap o K on the full plane
        J = AntilinearMap(np.array([[0.0, 1.0], [1.0, 0.0]]))
        out = fix_basis_involutive(J, np.eye(2))
        expected = np.column_stack(
            [np.array([1.0, 1.0]) / np.sqrt(2), np.array([1j, -1j]) / np.sqrt(2)]
        )
        np.testing.assert_allclose(out, expected, atol=1e-14)
        np.testing.assert_allclose(J.matrix @ np.conj(out), out, atol=1e-14)

    def test_rejects_anti_involutive(self):
        with pytest.raises(NotInvolutive):
            fix_basis_involutive(AntiunitaryOp(MINUS_I_SIGMA2), np.eye(2))

    def test_rejects_non_invariant_span(self):
        J = AntilinearMap(np.fliplr(np.eye(3)))
        with pytest.raises(NotInvariant):
            fix_basis_involutive(J, np.eye(3)[:, :1])

    @pytest.mark.parametrize(
        "E, error",
        [
            (np.ones((2, 1)), ValueError),  # a column of norm sqrt(2)
            (np.array([[1.0, 1.0], [0.0, 1e-3]]), ValueError),  # two columns almost parallel
            (np.zeros((2, 0)), None),  # the empty span: its basis is itself
        ],
        ids=["long", "parallel", "empty"],
    )
    def test_edge_bases(self, E, error):
        if error is None:
            assert fix_basis_involutive(conj_k(2), E).shape == (2, 0)
        else:
            with pytest.raises(error, match="not orthonormal"):
                fix_basis_involutive(conj_k(2), E)

    def test_rejects_involution_that_is_not_antiunitary(self):
        # a conj(a) = I, but J stretches e_2 by 2 and shrinks e_1 by 1/2
        with pytest.raises(NotUnitary):
            fix_basis_involutive(AntilinearMap(np.array([[0.0, 2.0], [0.5, 0.0]])), np.eye(2))

    @pytest.mark.parametrize(
        "n, m, haar", [(8, 3, False), (256, 64, True), (480, 240, True)], ids=["K", "haar", "haar-480"]
    )
    def test_random_invariant_subspaces(self, n, m, haar, rng):
        # span of {v_i, K v_i} is K-invariant; outputs must be fixed and orthonormal
        C = conj_k(n)
        V = np.linalg.qr(rng.standard_normal((n, m)) + 0j)[0]
        if haar:
            # C = U U^T o K fixes U x for real x; a unitary mix unfixes the columns
            U = haar_unitary(n, rng)
            C = AntiunitaryOp(U @ U.T)
            V = U @ V @ haar_unitary(m, rng)
        out = fix_basis_involutive(C, V)
        assert out.shape == (n, m)
        assert fro(out.conj().T @ out - np.eye(m)) <= 1e-10
        assert fro(C.unitary_part @ np.conj(out) - out) <= 1e-10
        # same span
        assert fro(out @ out.conj().T - V @ V.conj().T) <= 1e-10


class TestCheckFixable2d:
    """Whether a J-invariant plane has a J-fixed basis: fix_basis_involutive
    returns one if so, and raises NotInvolutive or NotUnitary if not."""

    @staticmethod
    def assert_fixed_basis(J, E):
        phis = fix_basis_involutive(J, E)
        assert fro(phis.conj().T @ phis - np.eye(E.shape[1])) <= 1e-12
        assert fro(J.matrix @ np.conj(phis) - phis) <= 10 * DEFAULT_TOL.bound(1.0)

    def test_involutive_always_true(self):
        self.assert_fixed_basis(AntilinearMap(np.array([[0.0, 1.0], [1.0, 0.0]])), np.eye(2))

    def test_anti_involutive_obstruction(self):
        with pytest.raises(NotInvolutive):
            fix_basis_involutive(AntiunitaryOp(MINUS_I_SIGMA2), np.eye(2))

    def test_plain_conjugation(self):
        self.assert_fixed_basis(conj_k(2), np.eye(2))

    def test_partial_j_not_fixable(self):
        # diag(1, 0) o K is symmetric on the plane but kills e_2, so J^2 != I there
        with pytest.raises(NotInvolutive):
            fix_basis_involutive(AntilinearMap(np.diag([1.0, 0.0])), np.eye(2))

    def test_non_invariant_rejected(self):
        J = AntilinearMap(np.fliplr(np.eye(4)))
        with pytest.raises(NotInvariant):
            fix_basis_involutive(J, np.eye(4)[:, :2])

    @pytest.mark.parametrize("factor", [0.5, 0.8, 0.95, 1.2])
    def test_agrees_with_fix_basis_involutive(self, factor):
        # a = [[0, e^{i delta}], [1, 0]] is unitary, and a conj(a) - I =
        # diag(e^{i delta} - 1, e^{-i delta} - 1) has norm sqrt(2) delta to
        # first order, while a is symmetric to delta: near the bound only the
        # involution decides
        delta = factor * DEFAULT_TOL.bound(1.0)
        J = AntilinearMap(np.array([[0.0, np.exp(1j * delta)], [1.0, 0.0]]))
        if factor * np.sqrt(2) <= 1.0:
            self.assert_fixed_basis(J, np.eye(2))
        else:
            with pytest.raises(NotInvolutive):
                fix_basis_involutive(J, np.eye(2))


def takagi_2x2(S):
    """Brute-force Takagi factorization oracle for 2x2 complex symmetric S:
    returns (sigmas, Q) with S = Q diag(sigmas) Q.T, Q unitary."""
    # eigen-decompose S conj(S), whose eigenvalues are sigma^2
    evals, evecs = np.linalg.eig(S @ np.conj(S))
    sigmas = np.sqrt(np.abs(evals))
    cols = []
    for j in range(2):
        v = evecs[:, j]
        w = S @ np.conj(v)
        if np.linalg.norm(w) > 1e-12:
            # rotate v so that S conj(v) = sigma v
            phase = np.vdot(v, w)
            v = v * np.exp(0.5j * np.angle(phase))
        cols.append(v)
    Q = np.column_stack(cols)
    order = np.argsort(-sigmas)
    return sigmas[order], Q[:, order]


class TestRefinedSvd:
    def test_diagonal(self):
        out = refined_svd(np.diag([1.0, 2.0]), conj_k(2))
        np.testing.assert_allclose(out.sigmas, [2.0, 1.0])
        np.testing.assert_allclose(np.abs(out.phis), np.eye(2)[:, ::-1], atol=1e-14)
        np.testing.assert_allclose(out.reconstruct(), np.diag([1.0, 2.0]), atol=1e-14)

    def test_empty_matrix_gives_empty_expansion(self):
        out = refined_svd(np.zeros((0, 0)), AntiunitaryOp(np.zeros((0, 0))))
        assert out.sigmas.shape == (0,) and out.phis.shape == out.etas.shape == (0, 0)
        assert out.residuals == {"eigen": 0.0, "fixed": 0.0, "reconstruction": 0.0}

    def test_degenerate_involutive_branch(self):
        # sigma = 2 twice; frozen from the eigenvalues of H*H = 4 I
        H = np.array([[0.0, 2.0], [2.0, 0.0]])
        out = refined_svd(H, conj_k(2))
        np.testing.assert_allclose(out.sigmas, [2.0, 2.0])
        assert fro(H - out.reconstruct()) <= 1e-10
        J = refined_polar(H, conj_k(2)).J
        assert fro(J.matrix @ np.conj(out.phis) - out.phis) <= 1e-10

    def test_takagi_oracle_agreement(self, rng):
        # with C = K the expansion is a Takagi factorization; compare sigmas
        # and reconstruction against the brute-force 2x2 oracle
        S = symmetrized_csa(random_matrix(2, rng), conj_k(2))
        sig_oracle, Q = takagi_2x2(S)
        assert fro(S - (Q * sig_oracle) @ Q.T) <= 1e-10 * fro(S)
        out = refined_svd(S, conj_k(2))
        np.testing.assert_allclose(out.sigmas, sig_oracle, atol=1e-10 * max(1, fro(S)))
        assert fro(S - out.reconstruct()) <= 1e-10 * max(1, fro(S))

    def test_anti_involutive_always_degenerate(self):
        C = AntiunitaryOp(MINUS_I_SIGMA2)
        with pytest.raises(UnsupportedDegeneracy):
            refined_svd(2.0 * np.eye(2), C)

    def test_anti_involutive_even_multiplicities(self):
        for dim, seed in [(4, 12), (6, 13), (8, 14)]:
            C = c2_blocks(dim)
            H = generate_csa(C, seed)
            s = np.linalg.svd(H, compute_uv=False)
            kept = s[s > rank_cutoff(s)]
            groups = cluster_indices(kept, SVD_CLUSTER_GAP * s[0])
            assert all(len(g) % 2 == 0 for g in groups)
            with pytest.raises(UnsupportedDegeneracy):
                refined_svd(H, C)

    def test_generic_antiunitary_pairing_obstruction(self):
        # H commutes with the unitary Q = C^2, and C couples the conjugate
        # eigenvalue pairs of Q, pairing the singular values that live
        # there; a simple singular value can only sit on the fixed space of
        # Q (where J^2 = U* Q U must restrict to the identity)
        C = random_antiunitary(5, seed=31)
        assert classify(C) is InvolutionClass.NEITHER
        H = generate_csa(C, 8)
        Q = C.squared()
        assert fro(Q @ H - H @ Q) <= 1e-10 * max(1.0, fro(H))
        W, s, _ = np.linalg.svd(H)
        kept = np.flatnonzero(s > rank_cutoff(s))
        groups = cluster_indices(s[kept], SVD_CLUSTER_GAP * s[0])
        assert any(len(g) >= 2 for g in groups)
        for group in groups:
            if len(group) == 1:
                w = W[:, kept[group[0]]]
                assert np.linalg.norm(Q @ w - w) <= 1e-8
        with pytest.raises(UnsupportedDegeneracy):
            refined_svd(H, C)

    @pytest.mark.parametrize("n_kernel, n_range, seed", [(2, 3, 0), (3, 4, 1), (2, 6, 2)])
    def test_neither_simple_branch(self, n_kernel, n_range, seed):
        # simple nonzero singular values with non-involutive C exercises
        # the phase-fix branch
        H, C = neither_simple_case(n_kernel, n_range, seed)
        assert classify(C) is InvolutionClass.NEITHER
        out = refined_svd(H, C)
        scale = max(1.0, fro(H))
        assert fro(H - out.reconstruct()) <= 1e-8 * scale
        assert fro(H.conj().T - out.reconstruct_adjoint()) <= 1e-8 * scale
        J = refined_polar(H, C).J
        assert fro(J.matrix @ np.conj(out.phis) - out.phis) <= 1e-8

    @pytest.mark.parametrize("case", range(5))
    def test_corpus_reconstruction(self, case):
        cases = [c for c in corpus() if c[2] is InvolutionClass.INVOLUTIVE]
        H, C, _ = cases[case]
        out = refined_svd(H, C)
        scale = max(1.0, fro(H))
        polar = refined_polar(H, C)
        assert fro(H - out.reconstruct()) <= 1e-8 * scale
        assert fro(H.conj().T - out.reconstruct_adjoint()) <= 1e-8 * scale
        assert fro(polar.J.matrix @ np.conj(out.phis) - out.phis) <= 1e-8
        assert fro(polar.absH @ out.phis - out.phis * out.sigmas) <= 1e-8 * scale
        # eta_j = C^-1 phi_j are eigenvectors of |H*|
        absHadj = polar.U @ polar.absH @ polar.U.conj().T
        assert fro(absHadj @ out.etas - out.etas * out.sigmas) <= 1e-8 * scale

    def test_zero_matrix(self):
        out = refined_svd(np.zeros((3, 3)), conj_k(3))
        assert out.sigmas.shape == (0,)
        assert out.phis.shape == (3, 0)
        np.testing.assert_allclose(out.reconstruct(), np.zeros((3, 3)))


def _haar_conjugated(H, C, seed):
    """``(V H V*, (V A V^T) o K)`` for a Haar V: the same pair in a generic basis."""
    V = haar_unitary(H.shape[0], np.random.default_rng(seed))
    return V @ H @ V.conj().T, AntiunitaryOp(V @ C.unitary_part @ V.T)


class TestExpansionGates:
    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"classify": 0, "J": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(decomp, "classify", counted("classify", decomp.classify))
        # every J of the expansion is built by this one constructor call
        monkeypatch.setattr(decomp, "AntilinearMap", counted("J", decomp.AntilinearMap))
        return counts

    @pytest.mark.parametrize("n_kernel, n_range, seed", [(2, 3, 0), (2, 6, 2)])
    def test_simple_spectrum_never_classifies(self, counts, n_kernel, n_range, seed):
        # C^2 differs from I only on ker H, so C is "neither", yet every
        # nonzero singular value is simple
        H, C = _haar_conjugated(*neither_simple_case(n_kernel, n_range, seed), seed=40 + seed)
        assert classify(C) is InvolutionClass.NEITHER
        out = refined_svd(H, C)
        assert counts["classify"] == 0
        assert len(out.sigmas) == n_range
        assert fro(H - out.reconstruct()) <= 1e-8 * max(1.0, fro(H))

    def test_involutive_clusters_classify_once(self, counts, rng):
        # two degenerate clusters under a Haar involutive C
        n = 24
        Q = haar_unitary(n, rng)
        sig = np.concatenate([np.full(6, 3.0), np.full(4, 2.0), rng.uniform(0.1, 1.5, n - 10)])
        H, C = _haar_conjugated(Q @ np.diag(sig) @ Q.T, conj_k(n), seed=41)
        assert classify(C) is InvolutionClass.INVOLUTIVE
        out = refined_svd(H, C)
        assert counts == {"classify": 1, "J": 1}
        assert fro(H - out.reconstruct()) <= 1e-8 * fro(H)

    def test_anti_involutive_raises_before_building_j(self, counts):
        H, C = _haar_conjugated(generate_csa(c2_blocks(8), 5), c2_blocks(8), seed=42)
        message = r"multiplicity 2 and no J-fixed vector can exist for anti-involutive C"
        with pytest.raises(UnsupportedDegeneracy, match=message):
            refined_svd(H, C)
        assert counts == {"classify": 1, "J": 0}


def _expandable_pairs():
    pairs = [(H, C) for H, C, kind in corpus() if kind is InvolutionClass.INVOLUTIVE]
    return pairs + [neither_simple_case(*args) for args in [(2, 3, 0), (3, 4, 1), (2, 6, 2)]]


@pytest.mark.parametrize("case", range(8))
def test_reconstruct_adjoint_is_conjugate_transpose(case):
    # why the expansion checks only one reconstruction residual:
    # reconstruct_adjoint() is reconstruct()* and has the same norm
    H, C = _expandable_pairs()[case]
    out = refined_svd(H, C)
    assert fro(out.reconstruct_adjoint() - out.reconstruct().conj().T) <= 1e-14 * fro(H)


class TestResiduals:
    """Each result carries the residuals its decomposition certified."""

    @pytest.mark.parametrize("case", range(12))
    def test_polar_residuals(self, case):
        H, C, _ = corpus()[case]
        H = np.asarray(H, dtype=complex)
        polar = refined_polar(H, C)
        absH, B = polar.absH, polar.J.matrix
        assert polar.residuals == {
            "polar": fro(H - polar.U @ absH),
            "commutation": fro(B @ np.conj(absH) - absH @ B),
        }
        bound = DEFAULT_TOL.bound(max(1.0, fro(H)))
        assert all(r <= bound for r in polar.residuals.values())

    @pytest.mark.parametrize("case", range(8))
    def test_svd_residuals(self, case):
        H, C = _expandable_pairs()[case]
        H = np.asarray(H, dtype=complex)
        out = refined_svd(H, C)
        polar = refined_polar(H, C)  # the same J and |H| as the expansion's
        assert out.residuals == {
            "eigen": fro(polar.absH @ out.phis - out.phis * out.sigmas),
            "fixed": fro(polar.J.matrix @ np.conj(out.phis) - out.phis),
            "reconstruction": fro(H - out.reconstruct()),
        }
        groups = cluster_indices(out.sigmas, SVD_CLUSTER_GAP * out.sigmas[0])
        spread = max(out.sigmas[g[0]] - out.sigmas[g[-1]] for g in groups)
        bound = DEFAULT_TOL.bound(max(1.0, fro(H))) + 2.0 * spread * np.sqrt(len(out.sigmas))
        assert all(r <= bound for r in out.residuals.values())

    def test_hand_built_result_has_none(self):
        assert decomp.RefinedSVD(np.ones(1), np.ones((1, 1)), np.ones((1, 1))).residuals == {}

    def test_certify_passes_at_the_bound(self):
        assert decomp._certify("test", 1.0, a=1.0, b=0.0) == {"a": 1.0, "b": 0.0}

    def test_certify_names_nan_and_excess(self):
        with pytest.raises(NumericalFailure, match=r"bound 1\.000e\+00: a nan, c 2\.000e\+00$"):
            decomp._certify("test", 1.0, a=float("nan"), b=0.5, c=2.0)


def test_huge_norm_matches_unscaled():
    # at this scale ||H||_F^2 overflows; the bounds must stay finite and
    # still accept the correct factors
    t = 1e160
    C = random_antiunitary(8, seed=3)
    C = AntiunitaryOp(C.unitary_part @ C.unitary_part.T)  # involutive
    H = generate_csa(C, 5)
    polar, ref_polar = refined_polar(t * H, C), refined_polar(H, C)
    np.testing.assert_allclose(polar.absH / t, ref_polar.absH, rtol=0, atol=1e-12 * fro(H))
    out, ref = refined_svd(t * H, C), refined_svd(H, C)
    np.testing.assert_allclose(out.sigmas / t, ref.sigmas, rtol=1e-12)
    bound = DEFAULT_TOL.bound(fro(t * H))
    assert all(r <= bound for r in {**polar.residuals, **out.residuals}.values())


@pytest.mark.parametrize("decompose", [refined_polar, refined_svd])
def test_overflowing_norm_is_non_finite(decompose):
    # H is exactly C-self-adjoint, but ||H||_F overflows: NonFinite, not NotCsa
    H, C = overflowing_csa()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite):
            decompose(H, C)


def _outcome(decompose, H, C):
    try:
        decompose(H, C)
    except Exception as exc:  # the error type is the outcome
        return type(exc).__name__
    return "ok"


@pytest.mark.parametrize("t", [1e-300, 1e-290, 1e-250, 1e-170, 1e-150, 1e-12, 1e150])
def test_outcomes_do_not_depend_on_scale(t):
    # H -> tH changes no verdict: the checks and bounds scale with H, and
    # the norms do not underflow
    nilpotent = (np.array([[0.0, 1.0], [0.0, 0.0]]), conj_k(2), None)  # not C-self-adjoint
    for H, C, _ in [*corpus(), nilpotent]:
        for decompose in (refined_polar, refined_svd):
            assert _outcome(decompose, t * H, C) == _outcome(decompose, H, C)
