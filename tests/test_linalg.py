import contextvars
import multiprocessing
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from csaop import DimMismatch, NonFinite, Tolerance, linalg, refined_svd
from csaop.linalg import (
    _on_threads, _products, as_matrix, as_vector, cayley, cluster_indices, column_norms, direct_sum_blocks, fro,
    nullspace,
)

from csaop import pauli

from conftest import (
    connected_components, conj_k, haar_unitary, random_complex_symmetric, random_matrix, run_fresh,
)


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


class TestColumnNorms:
    """``fro``'s rescale, column by column."""

    def test_plain_norms_when_they_fit(self, rng):
        M = random_matrix(5, rng)
        np.testing.assert_array_equal(column_norms(M), np.linalg.norm(M, axis=0))

    @pytest.mark.parametrize("t", [1e-150, 1e-170, 1e-300, 1e160, 1e300])
    def test_each_column_scales(self, t, rng):
        M = random_matrix(6, rng)
        M[:, 0] *= 1e-3  # columns of different sizes rescale independently
        reference = np.array([fro(column) for column in M.T])
        np.testing.assert_allclose(column_norms(t * M), t * reference, rtol=1e-15, atol=0)

    def test_zero_subnormal_and_unrepresentable_columns(self):
        M = np.array([[0.0, 5e-324, 1e308 + 1e308j, 1.0], [0.0, 0.0, 1e308 + 1e308j, 1e-170]])
        np.testing.assert_array_equal(column_norms(M), [0.0, 5e-324, np.inf, 1.0])


class TestRowBlocks:
    """The row blocks in which residuals are taken (``_blocked_fro``)."""

    def test_fewest_balanced_blocks_cover_the_rows(self):
        height = linalg.RESIDUAL_BLOCK_ROWS
        for n in range(5 * height + 3):
            blocks = linalg._row_blocks(n)
            sizes = [block.stop - block.start for block in blocks]
            assert [i for block in blocks for i in range(n)[block]] == list(range(n)), n
            assert len(blocks) == -(-n // height), n
            assert not sizes or max(sizes) - min(sizes) <= 1 and max(sizes) <= height, n
            assert n < 2 or min(sizes) >= 2, n  # a one-row product takes gemv

    @pytest.mark.parametrize("t", [1.0, 1e-170, 1e160])
    def test_norm_of_the_blocks_is_the_norm_of_the_matrix(self, t, rng):
        n = 2 * linalg.RESIDUAL_BLOCK_ROWS + 1
        M = t * random_matrix(n, rng)
        seen = []

        def block(rows, left, right):
            assert left.shape == right.shape == (rows.stop - rows.start, n)
            seen.append(rows)
            np.copyto(left, M[rows])
            return left

        np.testing.assert_allclose(linalg._blocked_fro(n, block), fro(M), rtol=1e-15, atol=0)
        assert seen == linalg._row_blocks(n)

    def test_an_overflowing_block_gives_inf_and_no_block_gives_zero(self):
        n = linalg.RESIDUAL_BLOCK_ROWS + 1
        M = np.ones((n, n), complex)
        M[-1] = 1e308
        assert linalg._blocked_fro(n, lambda rows, left, right: M[rows]) == np.inf
        assert linalg._blocked_fro(0, lambda rows, left, right: M[rows]) == 0.0


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
            [np.nan],  # no step to compare
            [[1.0, 1.0], [1.0, 1.0]],  # sorted along each row, which is not a sequence of values
            5.0,
        ],
        ids=["unsorted", "complex-dtype", "complex", "nan", "lone-nan", "two-dimensional", "zero-dimensional"],
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
    """The blocks of ``direct_sum_blocks`` as lists, ordered by first member."""
    blocks = [row.tolist() for index in direct_sum_blocks(linked).values() for row in index]
    return sorted(blocks, key=lambda block: block[0])


def _path(n, rng):
    """A path through all ``n`` indices in random order, each link one-sided."""
    perm = rng.permutation(n)
    linked = np.zeros((n, n), dtype=bool)
    linked[perm[:-1], perm[1:]] = True
    return linked


def _permuted_blocks(sizes, rng):
    n = sum(sizes)
    linked = np.zeros((n, n), dtype=bool)
    start = 0
    for m in sizes:
        linked[start : start + m, start : start + m] = True
        start += m
    perm = rng.permutation(n)
    return linked[np.ix_(perm, perm)], perm


class TestConnectedComponents:
    """``direct_sum_blocks`` against the breadth-first search of the tests
    (``connected_components``), which it replaced in the library."""

    def test_dense_is_one_component(self, rng):
        assert _component_lists(random_matrix(7, rng) != 0) == [list(range(7))]

    def test_diagonal_gives_singletons(self):
        assert _component_lists(np.eye(5, dtype=bool)) == [[i] for i in range(5)]

    def test_permuted_blocks_recovered(self, rng):
        sizes = [3, 1, 4, 2, 5]
        linked, perm = _permuted_blocks(sizes, rng)
        # index i of the permuted matrix is index perm[i] of the original
        ends = np.cumsum(sizes)
        expected = sorted(
            (np.flatnonzero((perm >= end - m) & (perm < end)).tolist() for m, end in zip(sizes, ends)),
            key=lambda c: c[0],
        )
        assert _component_lists(linked) == expected

    def test_one_sided_link_joins(self):
        linked = np.zeros((3, 3), dtype=bool)
        linked[0, 2] = True
        assert _component_lists(linked) == [[0, 2], [1]]
        assert _component_lists(linked.T) == [[0, 2], [1]]

    def test_output_order(self):
        # members ascend within a block, blocks of one size follow their
        # least members, and sizes come in the order of their first block
        linked = np.zeros((7, 7), dtype=bool)
        for i, j in [(0, 4), (4, 1), (2, 6), (5, 3)]:
            linked[i, j] = True
        blocks = direct_sum_blocks(linked)
        assert list(blocks) == [3, 2]
        assert blocks[3].tolist() == [[0, 1, 4]]
        assert blocks[2].tolist() == [[2, 6], [3, 5]]
        assert all(index.dtype.kind == "i" for index in blocks.values())

    @pytest.mark.parametrize(
        "case", ["mixed", "one_sided", "isolated", "empty", "single", "dense", "path", "toy80", "toy601"]
    )
    def test_matches_breadth_first_search(self, case, rng):
        linked = {
            "mixed": lambda: _permuted_blocks([2, 5, 1, 3, 2, 1, 4, 2], rng)[0],
            "one_sided": lambda: np.triu(_permuted_blocks([3, 2, 6, 1, 2], rng)[0]),
            "isolated": lambda: _permuted_blocks([1, 1, 2, 1, 1], rng)[0] & ~np.eye(6, dtype=bool),
            "empty": lambda: np.zeros((0, 0), dtype=bool),
            "single": lambda: np.ones((1, 1), dtype=bool),
            "dense": lambda: random_matrix(40, rng) != 0,
            "path": lambda: _path(1202, rng),
            "toy80": lambda: pauli.discretize(-1.5, np.linspace(-3.0, 3.0, 80))[0] != 0,
            "toy601": lambda: pauli.discretize(-1.5, np.linspace(-3.0, 3.0, 601))[0] != 0,
        }[case]()
        groups = {}
        for component in connected_components(linked):
            groups.setdefault(len(component), []).append(component)
        blocks = direct_sum_blocks(linked)
        assert list(blocks) == list(groups)
        for m, members in groups.items():
            assert blocks[m].tobytes() == np.array(members).tobytes() and blocks[m].shape == (len(members), m)


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


def _svd_bits(result):
    return [result.sigmas.tobytes(), result.phis.tobytes(), result.etas.tobytes(), repr(result.residuals)]


class TestPool:
    """``_on_threads`` runs its parts on one process-wide pool."""

    def test_one_pool_of_at_most_one_thread_per_cpu(self, fresh_pool, monkeypatch):
        monkeypatch.setattr(linalg, "_cpu_count", lambda: 2)
        assert _on_threads(str, [1, 2]) == ["1", "2"]
        pool = linalg._pool
        # five parts on the pool's two threads: the others wait in its queue
        assert _on_threads(str, list(range(6))) == [str(k) for k in range(6)]
        assert linalg._pool is pool and pool._max_workers == 2

    def test_every_part_finishes_before_the_first_error_in_part_order(self, fresh_pool):
        finished = []

        def work(part):
            if part == "caller":
                raise KeyError(part)
            time.sleep(0.05)
            finished.append(part)
            if part == "fails":
                raise ValueError(part)

        with pytest.raises(KeyError):
            _on_threads(work, ["slow", "caller"])
        assert finished == ["slow"]
        with pytest.raises(ValueError, match="fails"):
            _on_threads(work, ["fails", "caller"])
        assert finished == ["slow", "fails"]

    def test_an_interrupt_cancels_the_queued_parts_at_once(self, fresh_pool, monkeypatch):
        # a pool of one thread: "blocked" holds it, "queued" waits behind
        # it, and the caller's part is interrupted while "blocked" runs
        monkeypatch.setattr(linalg, "_cpu_count", lambda: 1)
        started, release, finished, ran = threading.Event(), threading.Event(), threading.Event(), []

        def work(part):
            if part == "caller":
                assert started.wait(60)
                raise KeyboardInterrupt
            ran.append(part)
            if part == "blocked":
                started.set()
                release.wait(60)
                finished.set()

        try:
            with pytest.raises(KeyboardInterrupt):
                _on_threads(work, ["blocked", "queued", "caller"])
            assert not finished.is_set(), "the interrupt waited for the running part"
        finally:
            release.set()
        # the pool's one thread takes this call's part only after "blocked"
        assert _on_threads(str, [1, 2]) == ["1", "2"]
        assert ran == ["blocked"]

    def test_pool_parts_run_in_the_callers_context(self, fresh_pool, monkeypatch):
        # every context variable the caller set, numpy's error state and
        # error callback among them, and none of them left on the pool's
        # one thread for the next call's part
        monkeypatch.setattr(linalg, "_cpu_count", lambda: 1)
        span = contextvars.ContextVar("span", default="unset")

        def seen(part):
            return threading.current_thread().name, span.get(), np.geterr()["over"], np.geterrcall()

        def callback(kind, flag):
            raise AssertionError("no floating-point error is expected")

        token = span.set("caller")
        try:
            with np.errstate(over="raise", call=callback):
                pooled, called = _on_threads(seen, [0, 1])
        finally:
            span.reset(token)
        assert pooled[0].startswith("csaop") and called[0] == threading.current_thread().name
        assert pooled[1:] == called[1:] == ("caller", "raise", callback)
        later, here = _on_threads(seen, [0, 1])
        assert later[0] == pooled[0] and later[1:] == here[1:] == ("unset", np.geterr()["over"], np.geterrcall())

    def test_a_products_task_makes_no_array(self, rng):
        x, y = random_matrix(64, rng), random_matrix(64, rng)[:, :40]
        out = np.empty((64, 40), complex)
        task = _products((out, x, y))
        tracemalloc.start()
        try:
            task()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4096  # the 64 x 40 product alone takes 40 KB
        assert out.tobytes() == (x @ y).tobytes()

    def test_a_pool_thread_runs_its_own_parts_in_order(self, fresh_pool, monkeypatch):
        # a pool of one thread: had the pool's part submitted its inner
        # parts, it would wait on the thread it occupies
        monkeypatch.setattr(linalg, "_cpu_count", lambda: 1)

        def outer(part):
            return _on_threads(lambda inner: (inner, threading.current_thread()), [part, part + 1])

        results = []
        runner = threading.Thread(target=lambda: results.append(_on_threads(outer, [0, 10])), daemon=True)
        runner.start()
        runner.join(60)
        assert not runner.is_alive(), "a call from a pool thread waited on its own pool"
        pooled, called = results[0]
        assert [part for part, _ in pooled] == [0, 1]
        assert pooled[0][1] is pooled[1][1] and pooled[0][1].name.startswith("csaop")
        assert [part for part, _ in called] == [10, 11]
        assert called[0][1] is pooled[0][1] and called[1][1] is runner

    def test_callers_on_several_threads_share_the_pool(self, fresh_pool, monkeypatch):
        # four callers on a pool of two threads, each with more parts than
        # it has between decompositions, while the interpreter switches
        # threads every microsecond
        monkeypatch.setattr(linalg, "_cpu_count", lambda: 2)
        H, C = random_complex_symmetric(128, np.random.default_rng(5)), conj_k(128)
        expected = _svd_bits(refined_svd(H, C))
        pool, results = linalg._pool, []

        def caller(parts):
            for _ in range(3):
                results.append(_svd_bits(refined_svd(H, C)))
                assert _on_threads(str, list(range(parts))) == [str(k) for k in range(parts)]

        callers = [threading.Thread(target=caller, args=(parts,), daemon=True) for parts in (2, 3, 4, 5)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in callers)
        assert results == [expected] * 12
        assert linalg._pool is pool

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_a_forked_child_builds_its_own_pool(self, fresh_pool, monkeypatch):
        monkeypatch.setattr(linalg, "_cpu_count", lambda: 2)
        H, C = random_complex_symmetric(128, np.random.default_rng(4)), conj_k(128)
        parent = _svd_bits(refined_svd(H, C))
        pool = linalg._pool
        assert pool is not None  # the threaded call started it
        context = multiprocessing.get_context("fork")
        reader, writer = context.Pipe(duplex=False)

        def child():
            bits = _svd_bits(refined_svd(H, C))
            writer.send((bits, linalg._pool not in (None, pool)))

        process = context.Process(target=child)
        process.start()
        try:
            assert reader.poll(60), "the forked child did not finish its refined_svd"
            bits, own_pool = reader.recv()
        finally:
            process.join(10)
            if process.is_alive():
                process.kill()
        assert own_pool and bits == parent

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forks_while_another_thread_submits(self):
        # in a fresh interpreter, so that a hang is a timeout here: one
        # thread submits to the pool without pause while the main thread
        # forks forty children, each of which must run a call of its own.
        # The main thread starts the pool first: a child forked while
        # another thread is importing a module finds that module's import
        # lock held for good, whatever the module
        script = """if True:
            import os, sys, threading
            from csaop.linalg import _on_threads

            _on_threads(str, [0, 1])
            stop = threading.Event()

            def submit():
                while not stop.is_set():
                    _on_threads(str, list(range(6)))

            submitter = threading.Thread(target=submit)
            submitter.start()
            sys.setswitchinterval(1e-6)
            failed = 0
            for _ in range(40):
                pid = os.fork()
                if pid == 0:
                    os._exit(0 if _on_threads(str, [1, 2, 3]) == ["1", "2", "3"] else 1)
                failed += os.waitpid(pid, 0)[1] != 0
            stop.set()
            submitter.join()
            print(failed)
        """
        result = run_fresh("-c", script, timeout=60)
        assert (result.returncode, result.stdout) == (0, "0\n"), result.stderr


def _python_ran_during_svd(stack) -> bool:
    """Whether a second thread ran Python while ``np.linalg.svd`` took the
    singular values of ``stack``. Under a 10 s switch interval the calling
    thread keeps the GIL from waking the other thread until the SVD
    returns, unless numpy lets go of it during the call."""
    done, seen, go = [False], [], threading.Event()

    def other():
        go.wait()
        seen.append(done[0])

    thread = threading.Thread(target=other)
    thread.start()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(10.0)
    try:
        go.set()
        np.linalg.svd(stack, compute_uv=False)
        done[0] = True
    finally:
        sys.setswitchinterval(interval)
    thread.join(timeout=60)
    assert not thread.is_alive()
    return not seen[0]


class TestGilFreeSvd:
    """numpy's rule behind ``_svd_chunk``: a values-only batched SVD runs
    without the GIL once it returns more than ``GIL_FREE_VALUES`` singular
    values. Were a numpy release to move it, the scan's parts would take
    turns on the GIL, at about half the speed on two CPUs, and no value
    would change."""

    # (count, rows): a (k, rows, rows) stack, or (k, count, rows, rows)
    @pytest.mark.parametrize("count, rows", [(None, 200), (None, 120), (1, 120), (2, 100), (3, 64)])
    def test_the_least_chunk_releases_the_gil_and_one_less_keeps_it(self, count, rows, rng):
        k = linalg._svd_chunk(count or 1, rows)
        assert (k - 1) * (count or 1) * rows <= linalg.GIL_FREE_VALUES < k * (count or 1) * rows
        shape = (k, rows, rows) if count is None else (k, count, rows, rows)
        stack = random_matrix(rows, rng) + np.zeros(shape)
        # the other thread may wait for a CPU (one CPU: it must preempt the
        # SVD, which it did in 90 of 200 calls of the short (3, 3, 64, 64)
        # stack under taskset -c 0), so it gets up to 50 calls to run in;
        # a kept GIL admits none
        assert any(_python_ran_during_svd(stack) for _ in range(50))
        assert not any(_python_ran_during_svd(stack[:-1]) for _ in range(2))
