import warnings

import numpy as np
import pytest

from csaop import AsymmetricGrid, NonFinite, check_c_real, check_c_selfadjoint, pauli
from csaop.antiunitary import AntiunitaryOp
from csaop.linalg import fro
from csaop.pauli import (
    MINUS_I_SIGMA2,
    REFLECTION_MATCH,
    SIGMA1,
    SIGMA3,
    constant_conjugation_residual,
    constant_conjugation_search,
    discretize,
    distance_to_closed_form,
    lift_conjugation,
    spectrum_sample,
    symbol,
)


class TestSymbol:
    def test_self_adjoint_point(self):
        h = symbol(1.0, 2.0)
        np.testing.assert_allclose(h, [[4.0, 2.0], [2.0, 4.0]])
        assert fro(h - h.conj().T) == 0.0

    def test_zero_momentum(self):
        np.testing.assert_allclose(symbol(3.7, 0.0), np.zeros((2, 2)))

    def test_negative_coupling_eigenvalues(self):
        h = symbol(-1.0, 1.0)
        np.testing.assert_allclose(h, [[1.0, 1.0], [-1.0, 1.0]])
        # characteristic polynomial (1 - l)^2 + 1 has roots 1 +- i
        eigs = np.linalg.eigvals(h)
        for root in (1.0 + 1.0j, 1.0 - 1.0j):
            assert np.min(np.abs(eigs - root)) <= 1e-12


class TestSpectrumSample:
    def test_half_line_minimum(self):
        sample = spectrum_sample(4.0, np.linspace(-3, 3, 601))
        eigs = sample.eigenvalues
        assert np.max(np.abs(eigs.imag)) <= 1e-12
        assert eigs.real.min() == pytest.approx(-1.0, abs=1e-12)

    def test_free_case_doubles(self):
        sample = spectrum_sample(0.0, np.linspace(-2, 2, 41))
        eigs = sample.eigenvalues
        np.testing.assert_allclose(eigs[:, 0], eigs[:, 1])
        np.testing.assert_allclose(eigs[:, 0], sample.k_grid**2)

    def test_parabola_relation(self):
        sample = spectrum_sample(-1.0, np.linspace(-3, 3, 601))
        lam = sample.eigenvalues.ravel()
        assert np.max(np.abs(lam.imag**2 - lam.real)) <= 1e-12

    def test_matches_dense_eigensolver(self):
        # independent oracle: numpy eigenvalues of each symbol matrix
        for alpha in (-2.0, -0.3, 0.0, 0.7, 4.0):
            sample = spectrum_sample(alpha, np.linspace(-2, 2, 17))
            for k, pair in zip(sample.k_grid, sample.eigenvalues):
                dense = np.linalg.eigvals(symbol(alpha, k))
                scale = 1e-12 * max(1.0, abs(k) ** 2)
                diff = min(
                    max(abs(pair[0] - dense[0]), abs(pair[1] - dense[1])),
                    max(abs(pair[0] - dense[1]), abs(pair[1] - dense[0])),
                )
                assert diff <= scale


    @pytest.mark.parametrize(
        "alpha, k_grid",
        [(np.nan, [0.0, 1.0]), (np.inf, [0.0, 1.0]), (1.0, [0.0, np.nan]), (1.0, [-np.inf, 0.0])],
    )
    def test_rejects_non_finite_input(self, alpha, k_grid):
        with pytest.raises(ValueError, match="must be finite"):
            spectrum_sample(alpha, k_grid)

    @pytest.mark.parametrize("alpha, kmax", [(1.0, 1e200), (1.0, 1.4e154), (1.7e308, 1.3e154)])
    def test_rejects_overflowing_eigenvalues(self, alpha, kmax):
        # finite input whose k^2, or k^2 + sqrt(alpha)|k|, overflows: an error, not inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow"):
                spectrum_sample(alpha, [-kmax, 0.0, kmax])

    def test_largest_representable_momenta_accepted(self):
        sample = spectrum_sample(1.0, [-1e154, 0.0, 1e154])
        assert np.isfinite(sample.eigenvalues).all()


class TestDistanceToClosedForm:
    def test_left_endpoint(self):
        assert distance_to_closed_form(4.0, -1.0) <= 1e-12

    def test_on_half_line(self):
        assert distance_to_closed_form(2.0, 5.0) <= 1e-12

    def test_on_parabola(self):
        assert distance_to_closed_form(-1.0, 1.0 + 1.0j) <= 1e-12
        assert distance_to_closed_form(-1.0, 4.0 - 2.0j) <= 1e-12

    def test_off_parabola(self):
        d = distance_to_closed_form(-1.0, 1.0 + 2.0j)
        assert d > 0.1
        # dense-sampling oracle for the same quantity
        k = np.linspace(-10, 10, 400001)
        curve = k**2 + 1j * k
        oracle = np.min(np.abs((1.0 + 2.0j) - curve))
        assert d == pytest.approx(oracle, abs=1e-6)

    @pytest.mark.parametrize("alpha", [-0.01, -1.5, -100.0])
    def test_on_curve_points_are_at_zero_distance(self, alpha):
        c = np.sqrt(-alpha)
        rng = np.random.default_rng(3)
        ks = np.concatenate([np.linspace(-30, 30, 241), rng.uniform(-30, 30, 200)])
        for k in ks:
            lam = k * k + 1j * c * k
            assert distance_to_closed_form(alpha, lam) <= 1e-14 * max(1.0, abs(lam)), k

    def test_below_half_line(self):
        # distance to [-1, inf) from -2 is 1, from -1 - i is sqrt(... ) = 1
        assert distance_to_closed_form(4.0, -2.0) == pytest.approx(1.0, abs=1e-10)
        assert distance_to_closed_form(4.0, 3.0 + 2.0j) == pytest.approx(2.0, abs=1e-10)


def reflection_by_momentum(k_grid):
    """Reference for the momentum reflection, as the dense permutation
    matrix R: one partner search over the whole grid per momentum."""
    k_grid = np.asarray(k_grid, dtype=float)
    n = len(k_grid)
    R = np.zeros((n, n))
    for j, k in enumerate(k_grid):
        matches = np.flatnonzero(np.abs(k_grid + k) <= REFLECTION_MATCH * max(1.0, abs(k)))
        if len(matches) != 1:
            raise AsymmetricGrid(
                f"momentum {k} has {len(matches)} partners under k -> -k; need exactly 1"
            )
        R[matches[0], j] = 1.0
    if not np.array_equal(R, R.T):
        raise AsymmetricGrid("reflection pairing is not an involution")
    return R


def partners_of(R):
    """``partner[j] = i`` where ``R[i, j] = 1``: the permutation matrix ``R``
    as the index array that :func:`pauli._reflection_partners` returns."""
    return np.nonzero(R.T)[1]


def discretize_by_momentum(alpha, k_grid):
    """Reference for discretize and the momentum reflection: one symbol
    block and one partner search per momentum."""
    k_grid = np.asarray(k_grid, dtype=float)
    R = reflection_by_momentum(k_grid)
    n = len(k_grid)
    H = np.zeros((2 * n, 2 * n), dtype=complex)
    for j, k in enumerate(k_grid):
        H[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = symbol(alpha, k)
    return H, R


class TestDiscretize:
    @pytest.mark.parametrize("alpha", [-1.5, 0.5, 2.0])
    @pytest.mark.parametrize(
        "k_grid",
        [[0.0], [-1.0, 1.0], [1.0, 0.0, -1.0], np.linspace(-3, 3, 80), np.linspace(-3, 3, 601)],
        ids=["zero", "pair", "unsorted", "80", "601"],
    )
    def test_matches_per_momentum_reference(self, alpha, k_grid):
        # every byte, signs of zero included: np.kron leaves -0.0 parts in C2
        H, C2, P = discretize(alpha, k_grid)
        H_ref, R_ref = discretize_by_momentum(alpha, k_grid)
        A_ref = np.kron(R_ref, MINUS_I_SIGMA2)
        assert np.signbit(A_ref.real).any()
        assert H.tobytes() == H_ref.tobytes()
        assert np.array_equal(pauli._reflection_partners(k_grid), partners_of(R_ref))
        assert C2.unitary_part.tobytes() == A_ref.tobytes()
        assert P.tobytes() == np.kron(np.eye(len(k_grid)), SIGMA1).tobytes()

    @pytest.mark.parametrize(
        "alpha, k_grid, message",
        [
            (np.nan, [-1.0, 1.0], "must be finite"),
            (np.inf, [-1.0, 1.0], "must be finite"),
            (1.0, [-1.0, np.nan], "must be finite"),
            (1.0, [-np.inf, np.inf], "must be finite"),
            (1.0, [-1e200, 1e200], "eigenvalues overflow"),
            (1e300, [-1e10, 1e10], "entries alpha k overflow"),
        ],
        ids=["nan-alpha", "inf-alpha", "nan-k", "inf-k", "huge-k", "huge-alpha-k"],
    )
    def test_rejects_non_finite_and_overflowing_input(self, alpha, k_grid, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                discretize(alpha, k_grid)

    @pytest.mark.parametrize(
        "k_grid", [[-1.0, 0.5], [1.0, 1.0, -1.0], [0.0, 2.0, 0.0, -2.0]],
        ids=["no-partner", "two-partners", "double-zero"],
    )
    def test_asymmetric_grid_message_matches_reference(self, k_grid):
        with pytest.raises(AsymmetricGrid) as expected:
            discretize_by_momentum(1.0, k_grid)
        for call in (lambda k: lift_conjugation(MINUS_I_SIGMA2, k), lambda k: discretize(1.0, k)):
            with pytest.raises(AsymmetricGrid) as got:
                call(k_grid)
            assert str(got.value) == str(expected.value)

    def test_c2_selfadjoint_small_grid(self):
        H, C2, _ = discretize(2.0, [-1.0, 1.0])
        assert H.shape == (4, 4)
        report = check_c_selfadjoint(H, C2)
        assert report.residual <= 1e-12 * max(1.0, fro(H))

    def test_pc2_reality(self):
        H, C2, P = discretize(2.0, [-1.0, 1.0])
        PC2 = AntiunitaryOp(P @ C2.unitary_part)
        report = check_c_real(H, PC2)
        assert report.residual <= 1e-12 * max(1.0, fro(H))

    def test_c1_never_works(self):
        for alpha in (0.0, 2.0, -1.0, 1.0):
            H, _, _ = discretize(alpha, [-1.0, 1.0])
            C1 = lift_conjugation(SIGMA1, [-1.0, 1.0])
            assert not check_c_selfadjoint(H, C1).is_csa

    def test_k_works_only_at_minus_one(self):
        for alpha, expected in [(-1.0, True), (2.0, False), (1.0, False)]:
            H, _, _ = discretize(alpha, [-1.0, 1.0])
            K = lift_conjugation(np.eye(2), [-1.0, 1.0])
            assert check_c_selfadjoint(H, K).is_csa == expected

    def test_c3_works_only_at_plus_one(self):
        for alpha, expected in [(1.0, True), (-1.0, False), (0.5, False)]:
            H, _, _ = discretize(alpha, [-1.0, 1.0])
            C3 = lift_conjugation(SIGMA3, [-1.0, 1.0])
            assert check_c_selfadjoint(H, C3).is_csa == expected

    def test_self_adjoint_iff_unit_coupling(self):
        for alpha in (-2.0, -1.0, 0.0, 0.5, 1.0, 3.0):
            H, _, _ = discretize(alpha, np.linspace(-2, 2, 9))
            deviation = fro(H - H.conj().T)
            if alpha == 1.0:
                assert deviation == 0.0
            else:
                assert deviation > 1e-6

    def test_zero_momentum_self_paired(self):
        H, C2, _ = discretize(0.5, [-1.0, 0.0, 1.0])
        assert H.shape == (6, 6)
        assert check_c_selfadjoint(H, C2).is_csa

    def test_asymmetric_grid_rejected(self):
        with pytest.raises(AsymmetricGrid):
            discretize(1.0, [-1.0, 0.5])
        with pytest.raises(AsymmetricGrid):
            discretize(1.0, [1.0, 1.0, -1.0])  # duplicate momentum is ambiguous

    def test_larger_grids(self):
        for alpha in (-2.0, 0.5, 3.0):
            grid = np.linspace(-3, 3, 64 + 1)  # odd count keeps 0 self-paired
            H, C2, P = discretize(alpha, grid)
            assert check_c_selfadjoint(H, C2).residual <= 1e-12 * fro(H)
            PC2 = AntiunitaryOp(P @ C2.unitary_part)
            assert check_c_real(H, PC2).residual <= 1e-12 * fro(H)


def farthest_partner(k, side):
    """The momentum farthest from ``-k`` on ``side`` (+1 or -1) that still
    pairs with ``k``: ``|p + k| <= REFLECTION_MATCH max(1, |k|)`` as
    computed, while the next float beyond it does not."""
    bound = REFLECTION_MATCH * max(1.0, abs(k))
    p = -k + side * bound
    while abs(p + k) > bound:
        p = np.nextafter(p, -k)
    while abs(np.nextafter(p, side * np.inf) + k) <= bound:
        p = np.nextafter(p, side * np.inf)
    return p


def bound_grids():
    """Pairs exactly at the REFLECTION_MATCH bound and one ulp past it."""
    grids = {}
    for k in (0.5, -0.75, 3.0, -2.5e6):
        for side in (1, -1):
            p = farthest_partner(k, side)
            grids[f"at-{k:g}{side:+d}"] = [k, p]
            grids[f"past-{k:g}{side:+d}"] = [k, np.nextafter(p, side * np.inf)]
    return grids


class TestSortPairing:
    """The momentum pairing, lift_conjugation and discretize against the
    per-momentum reference, byte for byte and message for message."""

    GRIDS = {
        **bound_grids(),
        "shuffled-601": np.random.default_rng(7).permutation(np.linspace(-3, 3, 601)),
        "zero": [0.0],
        "signed-zero": [-0.0],
        "double-zero": [0.0, -0.0],
        "duplicate": [2.0, -2.0, 2.0],
        "empty": [],
    }

    @pytest.mark.parametrize("k_grid", list(GRIDS.values()), ids=list(GRIDS))
    def test_matches_reference(self, k_grid):
        try:
            H_ref, R_ref = discretize_by_momentum(-1.5, k_grid)
        except AsymmetricGrid as expected:
            for call in (lambda k: lift_conjugation(MINUS_I_SIGMA2, k), lambda k: discretize(-1.5, k)):
                with pytest.raises(AsymmetricGrid) as got:
                    call(k_grid)
                assert str(got.value) == str(expected)
            return
        H, C2, P = discretize(-1.5, k_grid)
        assert np.array_equal(pauli._reflection_partners(k_grid), partners_of(R_ref))
        assert H.tobytes() == H_ref.tobytes()
        assert C2.unitary_part.tobytes() == np.kron(R_ref, MINUS_I_SIGMA2).tobytes()
        assert C2.unitary_part.shape == (2 * len(k_grid),) * 2

    def test_bound_grids_hit_both_outcomes(self):
        # the bound cases are only worth their name if both decisions occur
        outcomes = set()
        for name, k_grid in bound_grids().items():
            try:
                reflection_by_momentum(k_grid)
                outcomes.add((name[:2], "paired"))
            except AsymmetricGrid:
                outcomes.add((name[:2], "rejected"))
        assert outcomes == {("at", "paired"), ("pa", "rejected")}

    def test_wide_grid_matches_reference(self):
        k_grid = np.linspace(-1e6, 1e6, 2001)
        R_ref = reflection_by_momentum(k_grid)
        assert np.array_equal(pauli._reflection_partners(k_grid), partners_of(R_ref))

    @pytest.mark.parametrize("k_grid", [[-1.0, np.nan], [np.inf, -np.inf]], ids=["nan", "inf"])
    def test_non_finite_momenta_are_named(self, k_grid):
        for call in (lambda k: lift_conjugation(MINUS_I_SIGMA2, k), lambda k: discretize(-1.5, k)):
            with pytest.raises(ValueError, match="must be finite"):
                call(k_grid)

    def test_grid_must_be_one_dimensional(self):
        for call in (spectrum_sample, discretize):
            with pytest.raises(ValueError, match="must be one-dimensional"):
                call(1.0, [[1.0, -1.0]])

    def test_non_finite_block_raises_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFinite):
                lift_conjugation([[1, 0], [0, np.inf]], [-1.0, 1.0])

    def test_construction_forms_no_dense_check(self, monkeypatch):
        # no Gram product or np.kron on the toy path
        def refuse(*args, **kwargs):
            raise AssertionError("dense construction on the toy path")

        monkeypatch.setattr(AntiunitaryOp, "__init__", refuse)
        monkeypatch.setattr(np, "kron", refuse)
        H, C2, P = discretize(-1.5, np.linspace(-3, 3, 2001))
        assert isinstance(C2, AntiunitaryOp) and C2.dim == H.shape[0] == P.shape[0] == 4002


class TestConstantConjugationSearch:
    def test_sweep(self):
        for alpha in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 1 + 2e-10, 1 - 1e-9, -1 + 1e-9):
            exists, witness = constant_conjugation_search(alpha)
            assert exists == (abs(alpha) == 1.0)
            if exists:
                assert constant_conjugation_residual(alpha, witness) <= 1e-12

    def test_canonical_witnesses(self):
        _, witness = constant_conjugation_search(1.0)
        np.testing.assert_allclose(witness, SIGMA3, atol=1e-12)
        _, witness = constant_conjugation_search(-1.0)
        np.testing.assert_allclose(witness, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("alpha", [1 + 1e-11, 1 - 5e-11, -1 - 1e-11, -1 + 1e-11])
    def test_witness_is_exact_near_unit_coupling(self, alpha):
        exists, witness = constant_conjugation_search(alpha)
        assert exists
        assert np.array_equal(witness, np.diag([1.0, -np.sign(alpha)]))
        # the certificate is the closed-form check |alpha| = 1
        residual = constant_conjugation_residual(alpha, witness)
        assert residual == pytest.approx(np.sqrt(2) * abs(abs(alpha) - 1), rel=1e-12)

    def test_non_finite_coupling_rejected(self):
        with pytest.raises(ValueError, match="alpha must be finite"):
            constant_conjugation_search(np.nan)

    def test_documented_witnesses_by_direct_residual(self):
        assert constant_conjugation_residual(-1.0, np.eye(2)) <= 1e-12
        assert constant_conjugation_residual(1.0, SIGMA3) <= 1e-12

    def test_wrong_witness_fails_loudly(self):
        assert constant_conjugation_residual(2.0, SIGMA3) > 0.5
        assert constant_conjugation_residual(2.0, np.eye(2)) > 0.5

    def test_witness_defines_valid_conjugation(self):
        # the witness actually conjugates the discretized model correctly
        for alpha in (-1.0, 1.0):
            _, witness = constant_conjugation_search(alpha)
            grid = [-1.5, -0.5, 0.5, 1.5]
            H, _, _ = discretize(alpha, grid)
            C = lift_conjugation(witness, grid)
            assert check_c_selfadjoint(H, C).is_csa
            assert (C.squared() == np.eye(8)).all() or fro(C.squared() - np.eye(8)) <= 1e-12
