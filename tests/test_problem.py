import dataclasses
import math

import numpy as np
import pytest

from reference_methods import row_objective
from sagd import problem
from sagd.exceptions import InvalidInputError, NotStronglyConvexError
from sagd.numerics import symmetric_eigen
from sagd.problem import (
    Dataset,
    LossSpec,
    SmoothnessProfile,
    batch_gradient_fn,
    exact_solution,
    full_grad,
    gradient_fn,
    normalize_rows,
    smoothness_profile,
)


def _random_dataset(n, d, seed, labels=None):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, d))
    y = rng.standard_normal(n) if labels is None else labels
    return Dataset.from_dense(a, y)


def _sign_dataset(n, d, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, d))
    y = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
    return Dataset.from_dense(a, y)


def _single_sample(data, i):
    """One-sample dataset; its objective is exactly f_i of the original."""
    s, e = data.indptr[i], data.indptr[i + 1]
    return Dataset([0, e - s], data.indices[s:e], data.values[s:e], data.labels[i : i + 1], data.d)


class TestDatasetLayout:
    def test_validation(self):
        def row(indices, values):
            return Dataset([0, len(indices)], indices, values, [1.0], d=3)

        with pytest.raises(InvalidInputError):
            row([0, 0], [1.0, 2.0])  # duplicate index
        with pytest.raises(InvalidInputError):
            row([2, 1], [1.0, 2.0])  # decreasing
        with pytest.raises(InvalidInputError):
            row([3], [1.0])  # out of range
        with pytest.raises(InvalidInputError):
            row([-1], [1.0])  # out of range
        with pytest.raises(InvalidInputError):
            row([0], [math.inf])
        with pytest.raises(InvalidInputError):
            row([0], [math.nan])
        with pytest.raises(InvalidInputError, match="row 1"):
            Dataset([0, 2, 4], [0, 2, 1, 1], [1.0] * 4, [1.0, 2.0], d=3)  # duplicate in row 1

    @pytest.mark.parametrize(
        "indptr",
        [[1, 2], [0, 1], [0, 3], [0, 2, 1, 2], [[0, 2]], [0]],
        ids=["not-from-zero", "short-of-nnz", "past-nnz", "decreasing", "2-d", "no-rows"],
    )
    def test_malformed_indptr_rejected(self, indptr):
        with pytest.raises(InvalidInputError):
            Dataset(indptr, [0, 1], [1.0, 2.0], [1.0] * max(1, len(indptr) - 1), d=3)

    @pytest.mark.parametrize("d", [2.5, 3.0, np.float64(3.0), "3", None, 0],
                             ids=["fraction", "float", "np-float", "str", "none", "zero"])
    def test_non_integer_d_rejected(self, d):
        with pytest.raises(InvalidInputError, match="integer d >= 1"):
            Dataset([0, 2], [0, 1], [1.0, 2.0], [1.0], d=d)

    def test_numpy_integer_d_accepted(self):
        data = Dataset([0, 2], [0, 1], [1.0, 2.0], [1.0], d=np.int64(3))
        assert data.dense_matrix().tolist() == [[1.0, 2.0, 0.0]]

    def test_rows_may_restart_indices_and_be_empty(self):
        data = Dataset([0, 2, 2, 3], [1, 2, 0], [1.0, 2.0, 3.0], [1.0, 2.0, 3.0], d=3)
        assert data.n == 3 and not data.is_dense
        assert data.dense_matrix().tolist() == [[0, 1, 2], [0, 0, 0], [3, 0, 0]]

    def test_dot_and_dense(self):
        data = Dataset([0, 2], [1, 3], [2.0, -1.0], [0.0], d=4)
        x = np.array([1.0, 10.0, 100.0, 1000.0])
        # ridge, lambda = 0: grad f_0(x) = (a^T x - y) a
        assert gradient_fn(data, LossSpec("ridge", 0.0))(x, 0).tolist() == [
            0.0, 2.0 * (20.0 - 1000.0), 0.0, -1.0 * (20.0 - 1000.0)
        ]
        assert data.dense_matrix().tolist() == [[0.0, 2.0, 0.0, -1.0]]
        out = normalize_rows(data)
        assert out.values.tolist() == [2.0 / math.sqrt(5.0), -1.0 / math.sqrt(5.0)]

    def test_from_dense_is_full_csr(self):
        a = np.arange(6.0).reshape(2, 3)
        data = Dataset.from_dense(a, [1.0, 2.0])
        assert data.is_dense
        assert data.indptr.tolist() == [0, 3, 6]
        assert data.indices.tolist() == [0, 1, 2, 0, 1, 2]
        assert np.array_equal(data.dense_matrix(), a)
        a[0, 0] = 9.0  # the dataset owns a copy
        assert data.values[0] == 0.0

    def test_rising_row_lengths_group_as_views(self):
        # dense rows, and sparse rows whose lengths never fall, are grouped
        # by slices into views of values and indices: nothing is copied
        dense = _random_dataset(5, 3, 1)
        sparse = Dataset([0, 1, 2, 4, 6, 9], [2, 0, 0, 1, 1, 2, 0, 1, 2], np.arange(9.0),
                         np.zeros(5), d=3)
        cases = ((dense, [slice(0, 5)]), (sparse, [slice(0, 2), slice(2, 4), slice(4, 5)]))
        for data, rows in cases:
            assert [g[0] for g in data.row_groups] == rows
            for r, v, ix in data.row_groups:
                assert np.shares_memory(v, data.values) and np.shares_memory(ix, data.indices)
                lo, hi = data.indptr[r.start], data.indptr[r.stop]
                assert np.array_equal(v.ravel(), data.values[lo:hi])
                assert np.array_equal(ix.ravel(), data.indices[lo:hi])
        assert dense.row_groups[0][1].shape == (5, 3)

    def test_falling_row_lengths_group_by_length_in_row_order(self):
        data = Dataset([0, 2, 3, 3, 5, 6], [0, 2, 1, 0, 1, 2], np.arange(6.0), np.zeros(5), d=3)
        groups = data.row_groups
        assert [g[0].tolist() for g in groups] == [[2], [1, 4], [0, 3]]
        assert [g[1].tolist() for g in groups] == [[[]], [[2.0], [5.0]], [[0.0, 1.0], [3.0, 4.0]]]
        assert [g[2].tolist() for g in groups] == [[[]], [[1], [2]], [[0, 2], [0, 1]]]
        assert data.row_groups is groups  # grouped once, then kept


def _fd_gradient(f, x, h):
    g = np.empty(x.size)
    for k in range(x.size):
        e = np.zeros(x.size)
        e[k] = h
        g[k] = (f(x + e) - f(x - e)) / (2 * h)
    return g


class TestGradients:
    def test_ridge_at_zero_no_reg(self):
        data = _random_dataset(4, 3, 0)
        loss = LossSpec("ridge", 0.0)
        grad = gradient_fn(data, loss)
        for i in range(data.n):
            g = grad(np.zeros(3), i)
            expect = -data.labels[i] * data.dense_matrix()[i]
            assert np.allclose(g, expect, rtol=0, atol=0)

    def test_ridge_zero_residual(self):
        data = Dataset([0, 2], [0, 1], [1.0, 2.0], labels=np.array([5.0]), d=2)
        loss = LossSpec("ridge", 0.0)
        x = np.array([1.0, 2.0])  # a^T x = 5 = y
        assert np.all(gradient_fn(data, loss)(x, 0) == 0.0)

    @pytest.mark.parametrize("kind,lam", [("ridge", 0.3), ("logistic", 0.2)])
    def test_matches_finite_differences(self, kind, lam):
        data = _sign_dataset(6, 4, 1) if kind == "logistic" else _random_dataset(6, 4, 1)
        loss = LossSpec(kind, lam)
        rng = np.random.default_rng(2)
        x = rng.standard_normal(4)
        h = 1e-6 * (1 + np.linalg.norm(x))
        grad = gradient_fn(data, loss)
        for i in range(data.n):
            single = _single_sample(data, i)
            fd = _fd_gradient(lambda z: row_objective(single, loss, z), x, h)
            g = grad(x, i)
            assert np.linalg.norm(g - fd) <= 1e-6 * (1 + np.linalg.norm(g))

    def test_full_grad_single_sample(self):
        data = _random_dataset(1, 3, 3)
        loss = LossSpec("ridge", 0.1)
        x = np.array([0.5, -1.0, 2.0])
        assert np.allclose(
            full_grad(data, loss, x), gradient_fn(data, loss)(x, 0), rtol=1e-15
        )

    def test_full_grad_matches_finite_differences(self):
        data = _random_dataset(10, 3, 4)
        loss = LossSpec("ridge", 0.05)
        rng = np.random.default_rng(5)
        x = rng.standard_normal(3)
        h = 1e-6 * (1 + np.linalg.norm(x))
        fd = _fd_gradient(lambda z: row_objective(data, loss, z), x, h)
        g = full_grad(data, loss, x)
        assert np.linalg.norm(g - fd) <= 1e-6 * (1 + np.linalg.norm(g))

    def test_full_grad_vanishes_at_solution(self):
        data = _random_dataset(20, 5, 6)
        loss = LossSpec("ridge", 0.1)
        x_star = exact_solution(data, loss, smoothness_profile(data, loss))
        assert np.linalg.norm(full_grad(data, loss, x_star)) <= 1e-9

    def test_batch_matches_per_sample(self):
        data = _sign_dataset(8, 3, 8)
        for kind, lam in (("ridge", 0.2), ("logistic", 0.1)):
            loss = LossSpec(kind, lam)
            batch = batch_gradient_fn(data, loss)
            rng = np.random.default_rng(9)
            x = rng.standard_normal(3)
            idx = np.array([1, 4, 6])
            rows = batch(x, idx)
            grad = gradient_fn(data, loss)
            for pos, i in enumerate(idx):
                assert np.allclose(rows[pos], grad(x, int(i)), rtol=1e-12)

    def test_batch_unavailable_for_sparse_rows(self):
        data = Dataset([0, 1, 4], [0, 0, 1, 2], [1.0] * 4, labels=np.array([1.0, -1.0]), d=3)
        assert batch_gradient_fn(data, LossSpec("ridge", 0.0)) is None


class TestObjective:
    """Pins the reference objective the finite-difference checks read."""

    def test_ridge_at_zero(self):
        data = _random_dataset(7, 2, 10)
        loss = LossSpec("ridge", 0.4)
        y = data.labels
        assert math.isclose(
            row_objective(data, loss, np.zeros(2)), float(y @ y) / (2 * data.n), rel_tol=1e-14
        )

    def test_ridge_identity_design(self):
        data = Dataset.from_dense(np.eye(3), np.zeros(3))
        loss = LossSpec("ridge", 0.0)
        x = np.array([1.0, 2.0, 3.0])
        assert math.isclose(row_objective(data, loss, x), float(x @ x) / 6, rel_tol=1e-14)

    def test_logistic_at_zero(self):
        data = _sign_dataset(5, 3, 11)
        loss = LossSpec("logistic", 0.0)
        value = row_objective(data, loss, np.zeros(3))
        assert math.isclose(value, math.log(2) / 2, rel_tol=1e-14)

    def test_logistic_rejects_bad_labels(self):
        data = _random_dataset(4, 2, 12)  # real-valued labels
        with pytest.raises(InvalidInputError):
            smoothness_profile(data, LossSpec("logistic", 0.1))


class TestSmoothnessProfile:
    def test_normalized_ridge_levels(self):
        data = normalize_rows(_random_dataset(30, 4, 13))
        lam = 1.0 / data.n
        prof = smoothness_profile(data, LossSpec("ridge", lam))
        assert np.allclose(problem._row_sq_norms(data) + lam, 1.0 + lam, rtol=1e-12)
        assert math.isclose(prof.L_max, 1.0 + lam, rel_tol=1e-12)
        assert math.isclose(prof.L_bar, 1.0 + lam, rel_tol=1e-12)

    def test_identity_design_mu(self):
        n = 4
        data = Dataset.from_dense(np.eye(n), np.ones(n))
        prof = smoothness_profile(data, LossSpec("ridge", 0.5))
        assert math.isclose(prof.mu, 1.0 / n + 0.5, rel_tol=1e-12)
        assert prof.mu_source == "exact-eigen"

    def test_mu_matches_hessian_eigensolve(self):
        data = _random_dataset(50, 10, 14)
        lam = 0.05
        prof = smoothness_profile(data, LossSpec("ridge", lam))
        a = data.dense_matrix()
        hess = a.T @ a / data.n + lam * np.eye(10)
        w, _ = symmetric_eigen(hess)
        assert abs(prof.mu - w[0]) <= 1e-9 * max(1.0, w[0])

    def test_dim_limit_falls_back_to_lambda(self, monkeypatch):
        monkeypatch.setattr(problem, "_EXACT_MU_DIM_LIMIT", 4)
        data = _random_dataset(8, 5, 15)
        prof = smoothness_profile(data, LossSpec("ridge", 0.3))
        assert prof.mu == 0.3
        assert prof.mu_source == "lambda-lower-bound"

    def test_logistic_levels_and_mu(self):
        data = _sign_dataset(9, 3, 16)
        lam = 0.2
        prof = smoothness_profile(data, LossSpec("logistic", lam))
        a = data.dense_matrix()
        sq = np.array([r @ r for r in a])
        levels = sq / 8 + lam
        assert np.allclose(problem._row_sq_norms(data) / 8 + lam, levels, rtol=1e-12)
        assert math.isclose(prof.L_max, levels.max(), rel_tol=1e-12)
        assert math.isclose(prof.L_bar, levels.mean(), rel_tol=1e-12)
        assert prof.mu == lam

    def test_ordering_invariant_on_data_profiles(self):
        for seed in range(5):
            data = _random_dataset(20, 6, 100 + seed)
            prof = smoothness_profile(data, LossSpec("ridge", 0.01))
            assert 0.0 < prof.mu <= prof.L_bar * (1 + 1e-12)
            assert prof.L_bar <= prof.L_max * (1 + 1e-12)

    def test_rank_deficient_without_reg_rejected(self):
        # d > n makes the Gram matrix singular; lambda = 0 must be refused
        data = _random_dataset(3, 6, 17)
        with pytest.raises(NotStronglyConvexError):
            smoothness_profile(data, LossSpec("ridge", 0.0))

    def test_from_bounds_realizes_targets(self):
        prof = SmoothnessProfile.from_bounds(10, 2.0, 1.25, 0.1)
        assert math.isclose(prof.L_max, 2.0)
        assert math.isclose(prof.L_bar, 1.25, rel_tol=1e-12)

    @pytest.mark.parametrize(
        "n,l_max,l_bar,mu,bits",
        [
            (1, 1.3, 0.91, 0.5, "0x1.4cccccccccccdp+0"),
            (10, 2.0, 2.0, 0.1, "0x1.0000000000000p+1"),
            (3, 1.0, 0.4, 0.01, "0x1.999999999999bp-2"),
            (7, 1.0, 0.7, 0.05, "0x1.6666666666667p-1"),
            (10, 1.3, 0.91, 0.5, "0x1.d1eb851eb8520p-1"),
            (100, 1.3, 0.91, 0.5, "0x1.d1eb851eb851fp-1"),
        ],
    )
    def test_from_bounds_l_bar_bits_pinned(self, n, l_max, l_bar, mu, bits):
        # L_bar is the mean of the realizing levels, not l_bar itself
        prof = SmoothnessProfile.from_bounds(n, l_max, l_bar, mu)
        assert (prof.n, prof.L_max, prof.L_bar.hex()) == (n, l_max, bits)

    def test_five_numbers(self):
        names = [f.name for f in dataclasses.fields(SmoothnessProfile)]
        assert names == ["n", "L_max", "L_bar", "mu", "mu_source"]

    @pytest.mark.parametrize(
        "make,error",
        [
            (lambda: SmoothnessProfile(0, 1.0, 1.0, 0.1, "x"), InvalidInputError),
            (lambda: SmoothnessProfile(2.5, 1.0, 1.0, 0.1, "x"), InvalidInputError),
            (lambda: SmoothnessProfile(None, 1.0, 1.0, 0.1, "x"), InvalidInputError),
            (lambda: SmoothnessProfile(3, 1.0, 1.0, 0.0, "x"), NotStronglyConvexError),
            (lambda: SmoothnessProfile(3, 1.0, 1.0, math.nan, "x"), NotStronglyConvexError),
            (lambda: SmoothnessProfile(3, math.inf, 1.0, 0.1, "x"), InvalidInputError),
            (lambda: SmoothnessProfile(3, 1.0, 1.1, 0.1, "x"), InvalidInputError),
            (lambda: SmoothnessProfile.from_bounds(0, 1.0, 1.0, 0.1), InvalidInputError),
            (lambda: SmoothnessProfile.from_bounds(10, 2.0, 0.1, 0.1), InvalidInputError),
            (lambda: SmoothnessProfile(10, -1.0, -2.0, 0.1, "x"), InvalidInputError),
            (lambda: SmoothnessProfile(10, 1.0, -0.5, 0.1, "x"), InvalidInputError),
            (lambda: SmoothnessProfile.uniform(4, -1.0, 1.0), InvalidInputError),
        ],
        ids=["n0", "n-fraction", "n-none", "mu0", "mu-nan", "l-max-inf", "l-bar-above", "bounds-n0",
             "too-small", "both-negative", "l-bar-negative", "uniform-negative"],
    )
    def test_invalid_profiles_rejected(self, make, error):
        with pytest.raises(error):
            make()


class TestExactSolution:
    def test_zero_labels(self):
        data = _random_dataset(10, 3, 18)
        data = Dataset(data.indptr, data.indices, data.values, labels=np.zeros(10), d=3)
        loss = LossSpec("ridge", 0.2)
        x = exact_solution(data, loss, smoothness_profile(data, loss))
        assert np.linalg.norm(x) <= 1e-12

    def test_identity_design_no_reg(self):
        y = np.array([2.0, -1.0, 0.5])
        data = Dataset.from_dense(np.eye(3), y)
        loss = LossSpec("ridge", 0.0)
        x = exact_solution(data, loss, smoothness_profile(data, loss))
        assert np.allclose(x, y, atol=1e-10)

    def test_random_ridge_gradient_norm(self):
        data = _random_dataset(40, 6, 19)
        loss = LossSpec("ridge", 0.05)
        x = exact_solution(data, loss, smoothness_profile(data, loss))
        assert np.linalg.norm(full_grad(data, loss, x)) <= 1e-10

    def test_logistic_gradient_norm(self):
        data = normalize_rows(_sign_dataset(30, 4, 20))
        loss = LossSpec("logistic", 0.1)
        x = exact_solution(data, loss, smoothness_profile(data, loss), tol=1e-12)
        assert np.linalg.norm(full_grad(data, loss, x)) <= 1e-12

    def test_budget_exhaustion_reports_achieved_norm(self, monkeypatch):
        from sagd.exceptions import ConvergenceError

        data = normalize_rows(_sign_dataset(20, 3, 23))
        loss = LossSpec("logistic", 0.05)
        monkeypatch.setattr(problem, "_GD_MAX_ITERS", 3)
        with pytest.raises(ConvergenceError, match="in 3 iterations") as info:
            exact_solution(data, loss, smoothness_profile(data, loss), tol=1e-13)
        assert info.value.achieved is not None and info.value.achieved > 1e-13


class TestNormalizeRows:
    def test_three_four_five(self):
        data = Dataset([0, 2], [0, 1], [3.0, 4.0], labels=np.array([1.0]), d=2)
        out = normalize_rows(data)
        assert out.values.tolist() == [0.6, 0.8]

    def test_unit_rows_unchanged_and_idempotent(self):
        data = _random_dataset(12, 5, 21)
        once = normalize_rows(data)
        twice = normalize_rows(once)
        assert np.array_equal(once.values, twice.values)
        assert np.array_equal(once.labels, twice.labels)
        assert np.array_equal(once.labels, data.labels)

    def test_all_norms_unit(self):
        out = normalize_rows(_random_dataset(25, 7, 22))
        for row in out.dense_matrix():
            assert abs(np.linalg.norm(row) - 1.0) <= 1e-12

    def test_zero_row_rejected_with_index(self):
        data = Dataset([0, 1, 1], [0], [1.0], labels=np.array([1.0, 2.0]), d=2)
        with pytest.raises(InvalidInputError, match="row 1"):
            normalize_rows(data)
