import numpy as np
import pytest

from csaop import Tolerance, nullspace
from csaop.linalg import cluster_indices, fro, haar_unitary

from conftest import random_matrix


class TestTolerance:
    def test_bound(self):
        tol = Tolerance(abs=1e-10, rel=1e-8)
        assert tol.bound(10.0) == pytest.approx(1e-10 + 1e-7)

    @pytest.mark.parametrize("abs_, rel", [(-1.0, 1e-10), (1e-10, -1.0), (0.0, 0.0)])
    def test_rejects_bad_values(self, abs_, rel):
        with pytest.raises(ValueError):
            Tolerance(abs=abs_, rel=rel)


class TestNullspace:
    def test_rank_one_projector(self):
        kernel = nullspace(np.diag([1.0, 0.0]))
        assert kernel.shape == (2, 1)
        assert abs(abs(kernel[1, 0]) - 1.0) <= 1e-12

    def test_invertible(self):
        assert nullspace(np.array([[1.0, 2.0], [3.0, 4.0]])).shape == (2, 0)

    def test_ones_matrix(self):
        # solving [[1,1],[1,1]] x = 0 by hand gives span{(1,-1)/sqrt(2)}
        kernel = nullspace(np.ones((2, 2)))
        assert kernel.shape == (2, 1)
        expected = np.array([1.0, -1.0]) / np.sqrt(2)
        overlap = abs(np.vdot(expected, kernel[:, 0]))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_wide_matrix(self):
        kernel = nullspace(np.array([[1.0, 0.0, 0.0]]))
        assert kernel.shape == (3, 2)
        assert fro(kernel.conj().T @ kernel - np.eye(2)) <= 1e-12

    def test_columns_in_kernel(self, rng):
        M = random_matrix(9, rng)
        M[:, 3] = M[:, 4]  # engineered rank deficiency
        kernel = nullspace(M)
        assert kernel.shape[1] == 1
        for col in kernel.T:
            assert np.linalg.norm(M @ col) <= 1e-10 + 1e-10 * fro(M)


def test_cluster_indices_groups_close_values():
    groups = cluster_indices(np.array([1.0, 1.0000001, 2.0, 5.0, 5.0000001]), 1e-5)
    assert groups == [[0, 1], [2], [3, 4]]


def test_haar_unitary_is_unitary(rng):
    U = haar_unitary(12, rng)
    assert fro(U.conj().T @ U - np.eye(12)) <= 1e-12
