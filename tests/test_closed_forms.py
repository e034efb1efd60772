"""The structural predicates against the dense forms they replace.

``classify`` and ``AntiunitaryOp.square_split`` read ``||A -+ A^T||_F``,
which equals ``||C^2 -+ I||_F`` for unitary ``A``; the oracles in
``conftest.py`` form ``C^2`` and ``W = A^T A*``. Decisions may differ only
where the oracle's distance lies within ``2 * UNITARITY_TOL`` of the bound,
since ``A`` is unitary only to ``UNITARITY_TOL``.
"""

import inspect

import numpy as np
import pytest

from csaop import AntilinearMap, AntiunitaryOp, InvolutionClass, classify, conjugation_k, refined_svd
from csaop import modelspaces
from csaop.antiunitary import UNITARITY_TOL
from csaop.linalg import CLASSIFY_TOL
from csaop.modelspaces import (
    BlockAntilinear,
    block_antiunitary_check,
    check_condition_and,
    conjugation_c_alphabeta,
    conjugation_c_gamma,
    example2_conjugation,
    prop11_check,
    theta_condition_check,
)
from csaop.pauli import MINUS_I_SIGMA2, SIGMA1, SIGMA3, constant_conjugation_search, discretize, lift_conjugation

from conftest import (
    c2_blocks,
    class_operator,
    classify_by_square,
    conj_k,
    hadamard_conjugation,
    mixed_square,
    near_involutive,
    neither_simple_case,
    random_antiunitary,
    square_deviations,
    square_split_by_w,
)


def lifted_c2(momenta):
    return discretize(-1.5, np.linspace(-3, 3, momenta))[1]


def fixed_corpus():
    """The suite's and the demos' operators, by name."""
    kgrid = np.linspace(-2, 2, 7)
    return {
        "empty": AntiunitaryOp(np.zeros((0, 0))),
        "K1": conj_k(1),
        "K5": conj_k(5),
        "c2_blocks6": c2_blocks(6),
        "demo_c2": AntiunitaryOp(MINUS_I_SIGMA2),
        "demo_neither": AntiunitaryOp(np.array([[0, 1], [np.exp(1j * np.pi / 3), 0]])),
        "hadamard8": hadamard_conjugation(8),
        "haar7": random_antiunitary(7, seed=19),
        "mixed_square": mixed_square(seed=5),
        "mixed_square_rounded": AntiunitaryOp(np.round(mixed_square(seed=5).unitary_part, 12)),
        "neither_simple": neither_simple_case(3, 4, seed=2)[1],
        "gamma5": conjugation_c_gamma(5),
        "half_twist": conjugation_c_alphabeta(2, 2, np.pi),
        "twist_3_3": conjugation_c_alphabeta(3, 3, np.pi),
        "twist_generic": conjugation_c_alphabeta(2, 3, 0.7),
        "pairing4": example2_conjugation(4),
        "sigma1_lift": lift_conjugation(SIGMA1, kgrid),
        "sigma3_lift": lift_conjugation(SIGMA3, kgrid),
        "lifted_c2_80": lifted_c2(80),
        "lifted_c2_601": lifted_c2(601),
    }


def seeded_families():
    """Haar C, V V^T and V J2 V^T for n = 2 ... 64, and C with
    ||C^2 -+ I||_F from 1e-9 to 1e-7."""
    for n in range(2, 65):
        yield f"neither{n}", class_operator("neither", n, seed=n)
        yield f"involutive{n}", class_operator("involutive", n, seed=n)
        if n % 2 == 0:
            yield f"anti-involutive{n}", class_operator("anti-involutive", n, seed=n)
    for deviation in np.geomspace(1e-9, 1e-7, 9):
        for seed in range(3):
            for sign in (1, -1):
                yield f"near{sign:+d}_{deviation:.1e}_{seed}", near_involutive(16, deviation, seed, sign)


def near_the_bound(C):
    """Whether the dense distance from +-I lies within 2 UNITARITY_TOL of
    CLASSIFY_TOL, where the two forms may round to different decisions."""
    return any(abs(d - CLASSIFY_TOL.bound(1.0)) <= 2 * UNITARITY_TOL for d in square_deviations(C))


def corpus():
    return [*fixed_corpus().items(), *seeded_families()]


class TestClassifyOracle:
    def test_agrees_with_the_dense_square(self):
        compared, classes = 0, set()
        for name, C in corpus():
            if near_the_bound(C):
                continue
            expected = classify_by_square(C)
            assert classify(C) is expected, name
            compared, classes = compared + 1, classes | {expected}
        assert compared >= 220 and classes == set(InvolutionClass)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_near_class_straddles_the_bound(self, sign):
        # deviations on both sides of CLASSIFY_TOL are decided as the dense square decides them
        kind = InvolutionClass.INVOLUTIVE if sign == 1 else InvolutionClass.ANTI_INVOLUTIVE
        found = [classify(near_involutive(16, d, seed=0, sign=sign)) for d in (1e-9, 5e-9, 2e-8, 1e-7)]
        assert found == [kind, kind, InvolutionClass.NEITHER, InvolutionClass.NEITHER]

    def test_lifted_c2_at_601_momenta(self):
        C2 = lifted_c2(601)
        assert classify(C2) is InvolutionClass.ANTI_INVOLUTIVE
        assert C2.square_split is None

    def test_plain_antilinear_map_is_refused(self):
        with pytest.raises(AttributeError):
            classify(AntilinearMap(np.eye(2)))


class TestSquareSplitOracle:
    def test_same_split_as_the_w_form(self):
        split = 0
        for name, C in corpus():
            expected = square_split_by_w(C)
            found = C.square_split
            if expected is None:
                assert found is None, name
                continue
            assert found is not None, name
            assert found[0].tobytes() == expected[0].tobytes(), name
            assert found[1].tobytes() == expected[1].tobytes(), name
            split += 1
        assert split >= 60


def test_predicates_form_no_dense_product(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense square or sampled symbol")

    monkeypatch.setattr(AntilinearMap, "squared", refuse)
    monkeypatch.setattr(modelspaces, "evaluate_symbol", refuse)
    assert classify(c2_blocks(4)) is InvolutionClass.ANTI_INVOLUTIVE
    assert classify(class_operator("neither", 6, seed=1)) is InvolutionClass.NEITHER
    assert class_operator("neither", 6, seed=1).square_split is not None
    assert class_operator("involutive", 6, seed=1).square_split is None
    assert check_condition_and({2: 1.0}, {-2: 1.0})
    assert not check_condition_and({1: 1.0}, {})
    assert theta_condition_check({4: 1.0})
    assert not theta_condition_check({3: 1.0})
    eye = np.eye(2)
    assert block_antiunitary_check(BlockAntilinear.from_matrices(0 * eye, eye, -eye, 0 * eye)) == (True, True)
    assert constant_conjugation_search(1.0)[0]
    assert prop11_check(np.array([[0.0, 1.0], [-1.0, 0.0]]), conjugation_k(2), 3.0).is_csa
    # a repeated singular value asks classify for the involution class
    assert len(refined_svd(np.eye(4), conjugation_k(4)).sigmas) == 4


@pytest.mark.parametrize(
    "predicate", [classify, check_condition_and, block_antiunitary_check, constant_conjugation_search]
)
def test_no_per_call_tolerance(predicate):
    assert "tol" not in inspect.signature(predicate).parameters
