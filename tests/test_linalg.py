import tracemalloc

import numpy as np
import pytest

from csaop import DimMismatch, NonFinite, Tolerance
from csaop.linalg import (
    as_matrix, as_vector, cayley, cluster_indices, connected_components, fro, nullspace
)

from conftest import haar_unitary, random_matrix


class TestTolerance:
    def test_bound(self):
        tol = Tolerance(abs=1e-10, rel=1e-8)
        assert tol.bound(10.0) == pytest.approx(1e-10 + 1e-7)

    def test_absolute_part_shrinks_below_unit_scale(self):
        tol = Tolerance(abs=1e-10, rel=1e-8)
        assert tol.bound(1.0) == pytest.approx(1e-10 + 1e-8)
        assert tol.bound(1e-12) == pytest.approx(1e-22 + 1e-20)
        assert tol.bound(0.0) == 0.0

    @pytest.mark.parametrize(
        "abs_, rel", [(-1.0, 1e-10), (1e-10, -1.0), (0.0, 0.0), (np.nan, 1e-10), (1e-10, np.inf)]
    )
    def test_rejects_bad_values(self, abs_, rel):
        with pytest.raises(ValueError):
            Tolerance(abs=abs_, rel=rel)


@pytest.mark.parametrize(
    "coerce, value, error",
    [
        (as_matrix, np.zeros(3), DimMismatch),
        (lambda M: as_matrix(M, square=True), np.zeros((2, 3)), DimMismatch),
        (as_matrix, [[1.0, np.nan]], NonFinite),
        (as_matrix, [[complex(0, np.inf)]], NonFinite),
        (as_vector, np.zeros((2, 2)), DimMismatch),
        (as_vector, [1.0, -np.inf], NonFinite),
    ],
    ids=["matrix-1d", "matrix-not-square", "matrix-nan", "matrix-imag-inf", "vector-2d", "vector-inf"],
)
def test_coercion_rejects(coerce, value, error):
    with pytest.raises(error):
        coerce(value)


class TestFro:
    def test_plain_norm_when_it_fits(self, rng):
        for M in (random_matrix(7, rng), 1e150 * random_matrix(3, rng), np.zeros((2, 0))):
            assert fro(M) == float(np.linalg.norm(M))

    @pytest.mark.parametrize("t", [1e160, 1e300])
    def test_rescales_when_squares_overflow(self, t, rng):
        M = random_matrix(6, rng)
        assert fro(t * M) == pytest.approx(t * fro(M), rel=1e-15)

    @pytest.mark.parametrize("t", [1e-170, 1e-300])
    def test_rescales_when_squares_underflow(self, t, rng):
        M = random_matrix(6, rng)
        assert fro(t * M) == pytest.approx(t * fro(M), rel=1e-15, abs=0)

    def test_subnormal_entries_keep_their_norm(self):
        assert fro(np.array([[5e-324, 0.0], [0.0, 0.0]], dtype=complex)) == 5e-324

    def test_unrepresentable_norm_is_inf(self):
        assert fro(np.full((3, 3), 1e308 + 1e308j)) == np.inf
        assert fro(np.array([[np.inf, 1.0]])) == np.inf


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


def _union_find_clusters(values, gap):
    """Single linkage by an O(n^2) union-find loop: the oracle for
    ``cluster_indices``."""
    n = len(values)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(values[i] - values[j]) <= gap:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values(), key=lambda g: g[0])


class TestClusterIndicesOracle:
    def test_sorted_reals_chain_at_the_gap(self):
        # dyadic steps: neighbouring distances equal the gap exactly
        values = np.array([0.0, 0.25, 0.5, 0.75, 2.0, 2.25, 5.0, 5.125, 5.375])
        groups = cluster_indices(values, 0.25)
        assert groups == [[0, 1, 2, 3], [4, 5], [6, 7, 8]]
        assert groups == _union_find_clusters(values, 0.25)
        assert cluster_indices(values, 0.125) == _union_find_clusters(values, 0.125)

    def test_empty(self):
        assert cluster_indices(np.array([]), 1.0) == []

    @pytest.mark.parametrize("seed", range(3))
    def test_descending_sigma_like(self, seed):
        # singular values as the SVD returns them: descending, with tight
        # clusters at the relative gap used by the refined SVD
        rng = np.random.default_rng(seed)
        base = rng.uniform(0.1, 10.0, 40)
        values = np.sort(np.concatenate([base, base[:10] * (1 + 1e-9), base[:3] * (1 - 1e-8)]))[::-1]
        gap = 1e-6 * values[0]
        groups = cluster_indices(values, gap)
        assert groups == _union_find_clusters(values, gap)
        assert any(len(g) > 1 for g in groups) and any(len(g) == 1 for g in groups)

    def test_ascending_ties_and_chains_at_the_gap(self):
        values = np.array([0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 1.5, 3.0, 3.0, 7.0, 7.5, 8.0])
        for gap in (0.0, 0.25, 0.5, 1.5, 10.0):
            assert cluster_indices(values, gap) == _union_find_clusters(values, gap)
        assert cluster_indices(values, 0.5) == [[0, 1, 2, 3, 4, 5, 6], [7, 8], [9, 10, 11]]
        assert cluster_indices(values, 0.0) == [[0, 1, 2], [3], [4, 5], [6], [7, 8], [9], [10], [11]]

    @pytest.mark.parametrize(
        "values",
        [
            [5.0, 0.0, 5.25, 2.0],
            [0.0, 0.25, 1.0, 1.25, 3.0 + 0j],  # complex dtype, even with zero imaginary parts
            [0.0, 0.1 + 1.0j, 0.2],
            [1.0, np.nan, 2.0],
        ],
        ids=["unsorted", "complex-dtype", "complex", "nan"],
    )
    def test_rejects_complex_or_unsorted_input(self, values):
        with pytest.raises(ValueError, match="sorted real"):
            cluster_indices(np.array(values), 0.25)

    def test_sorted_reals_use_linear_memory(self):
        # an n x n distance matrix at n = 4000 alone would take 128 MB
        rng = np.random.default_rng(0)
        values = np.sort(rng.uniform(0.0, 1.0, 4000))[::-1]
        values[100:140] = values[100]  # one 40-fold cluster
        tracemalloc.start()
        try:
            groups = cluster_indices(values, 1e-9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert len(groups) == 4000 - 39 and groups[100] == list(range(100, 140))


def _component_lists(linked):
    return [c.tolist() for c in connected_components(linked)]


class TestConnectedComponents:
    def test_dense_is_one_component(self, rng):
        assert _component_lists(random_matrix(7, rng) != 0) == [list(range(7))]

    def test_diagonal_gives_singletons(self):
        assert _component_lists(np.eye(5, dtype=bool)) == [[i] for i in range(5)]

    def test_permuted_blocks_recovered(self, rng):
        sizes = [3, 1, 4, 2, 5]
        n = sum(sizes)
        linked = np.zeros((n, n), dtype=bool)
        blocks, start = [], 0
        for m in sizes:
            linked[start : start + m, start : start + m] = True
            blocks.append(set(range(start, start + m)))
            start += m
        perm = rng.permutation(n)
        # index i of the permuted matrix is index perm[i] of the original
        expected = sorted(
            (sorted(i for i in range(n) if perm[i] in block) for block in blocks),
            key=lambda c: c[0],
        )
        assert _component_lists(linked[np.ix_(perm, perm)]) == expected

    def test_one_sided_link_joins(self):
        linked = np.zeros((3, 3), dtype=bool)
        linked[0, 2] = True
        assert _component_lists(linked) == [[0, 2], [1]]
        assert _component_lists(linked.T) == [[0, 2], [1]]

    def test_output_order(self):
        # growing from 0 reaches 4 before 1; members come back sorted, and
        # components come back ordered by first member
        linked = np.zeros((6, 6), dtype=bool)
        for i, j in [(0, 4), (4, 1), (2, 5)]:
            linked[i, j] = True
        components = connected_components(linked)
        assert [c.tolist() for c in components] == [[0, 1, 4], [2, 5], [3]]
        assert all(c.dtype.kind == "i" for c in components)


class TestCayley:
    # eigenvalue -1 (no plain Cayley transform) and a cluster 1e-9 wide
    ANGLES = np.array([np.pi, 0.3, 0.3 + 1e-9, 0.3 - 1e-9, -2.0, 1.0, 1.0])

    def test_eigh_basis_diagonalises_clustered_unitary(self, rng):
        n = len(self.ANGLES)
        Q = haar_unitary(n, rng)
        W = (Q * np.exp(1j * self.ANGLES)) @ Q.conj().T
        T = cayley(W)
        assert fro(T - T.conj().T) <= 1e-12 * fro(T)
        _, P = np.linalg.eigh(T)
        D = P.conj().T @ W @ P
        assert fro(D - np.diag(np.diag(D))) <= 1e-12
        assert fro(np.sort(np.angle(np.diag(D))) - np.sort(np.angle(np.exp(1j * self.ANGLES)))) <= 1e-12

    def test_symmetric_unitary_gives_real_symmetric(self, rng):
        n = len(self.ANGLES)
        O = np.linalg.qr(rng.standard_normal((n, n)))[0]
        T = cayley((O * np.exp(1j * self.ANGLES)) @ O.T)
        assert fro(T.imag) <= 1e-12 * fro(T)
        assert fro(T - T.T) <= 1e-12 * fro(T)


def test_haar_unitary_is_unitary(rng):
    U = haar_unitary(12, rng)
    assert fro(U.conj().T @ U - np.eye(12)) <= 1e-12
