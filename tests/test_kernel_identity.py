"""The CSR array kernels reproduce the row-by-row loops bit for bit.

Every comparison is on the bytes of the float64 results, so even the sign
of a zero must match.  The block size of the order-preserving row sums is
drawn too, down to one row per block, so that the running sum crosses
block boundaries on these small datasets, and so is the row length from
which they add row by row instead of accumulating.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_methods import (
    row_full_grad,
    row_gradient_descent,
    row_gram_matrix,
    row_init_table_at_x,
    row_normalized_values,
    row_objective,
    row_ridge_rhs,
    row_smoothness_levels,
)
from sagd import problem
from sagd.exceptions import ConvergenceError, InvalidInputError
from sagd.problem import Dataset, LossSpec
from sagd.solver import init_table


def same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def row_sum_patches(block_bytes, loop_size):
    """Patch the block budget and the row-by-row threshold of the row sums."""
    return mock.patch.multiple(problem, _BLOCK_BYTES=block_bytes, _ROW_LOOP_SIZE=loop_size)


def random_dataset(rng, n, d, kind, density, scale=1.0):
    """Gaussian rows keeping each slot with probability ``density`` (CSR
    unless dense), with labels suited to ``kind``."""
    keep = rng.uniform(size=(n, d)) < density
    a = rng.standard_normal((n, d)) * scale * keep
    if kind == "ridge":
        labels = rng.standard_normal(n)
    else:
        labels = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
    if density == 1.0:
        return Dataset.from_dense(a, labels)
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    return Dataset(indptr, np.nonzero(keep)[1], a[keep], labels, d)


@st.composite
def problems(draw):
    """A dataset (dense or sparse, possibly with empty, unit or signed-zero
    entries), a loss on it, a point x, a block budget and a row-loop
    threshold."""
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(("ridge", "logistic")))
    dense = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = 1.0 if dense else draw(st.sampled_from((0.0, 0.3, 0.7, 1.0)))
    keep = rng.uniform(size=(n, d)) < density
    a = rng.standard_normal((n, d)) * draw(st.sampled_from((1e-3, 1.0, 1e3))) * keep
    a[rng.uniform(size=(n, d)) < 0.1] = draw(st.sampled_from((0.0, -0.0)))
    norms = np.linalg.norm(a, axis=1)
    unit = (rng.uniform(size=n) < draw(st.sampled_from((0.0, 0.5, 1.0)))) & (norms > 0.0)
    a[unit] /= norms[unit, None]
    if kind == "logistic":
        labels = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
    else:
        labels = rng.standard_normal(n)
    if dense:
        data = Dataset.from_dense(a, labels)
    else:
        indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
        data = Dataset(indptr, np.nonzero(keep)[1], a[keep], labels, d)
    loss = LossSpec(kind, draw(st.sampled_from((0.0, 1e-3, 0.5))))
    x = rng.standard_normal(d) * draw(st.sampled_from((0.0, 1.0, 30.0)))
    block_bytes = draw(st.sampled_from((1, 64, 1 << 20)))
    loop_size = draw(st.sampled_from((1, 8, 256)))
    return data, loss, x, block_bytes, loop_size


@settings(max_examples=300, deadline=None)
@given(problems())
def test_array_kernels_match_row_loops(case):
    data, loss, x, block_bytes, loop_size = case
    with row_sum_patches(block_bytes, loop_size):
        assert same_bits(problem.full_grad(data, loss, x), row_full_grad(data, loss, x))
        table = init_table(data, loss, x)
        j_mat, col_sum = row_init_table_at_x(data, loss, x)
        assert same_bits(table.J, j_mat) and same_bits(table.col_sum, col_sum)
        assert same_bits(problem.objective(data, loss, x), row_objective(data, loss, x))
        assert same_bits(problem._gram_matrix(data), row_gram_matrix(data))
        assert same_bits(problem._ridge_rhs(data), row_ridge_rhs(data))

    try:
        expect = row_normalized_values(data)
    except ValueError as exc:
        with pytest.raises(InvalidInputError, match=str(exc)):
            problem.normalize_rows(data)
    else:
        out = problem.normalize_rows(data)
        assert same_bits(out.values, expect)
        assert np.array_equal(out.indptr, data.indptr)

    levels, mu = row_smoothness_levels(data, loss)
    if mu > 0.0:
        prof = problem.smoothness_profile(data, loss)
        assert same_bits(prof.L, levels) and same_bits(prof.mu, mu)
        assert prof.L_max == float(levels.max()) and prof.L_bar == float(levels.mean())


@settings(max_examples=150, deadline=None)
@given(problems(), st.integers(0, 2**32 - 1))
def test_bound_gradient_sum_matches_row_loop_on_every_call(case, seed):
    # one binding serves a sequence of points; a gather buffer or scratch
    # block left over from an earlier call would show up in a later one
    data, loss, x, block_bytes, loop_size = case
    rng = np.random.default_rng(seed)
    points = [x, rng.standard_normal(data.d), rng.standard_normal(data.d) * 30.0]
    with row_sum_patches(block_bytes, loop_size):
        gsum = problem.gradient_sum_fn(data, loss)
        for k, p in enumerate(points):
            j_mat, col_sum = row_init_table_at_x(data, loss, p)
            if k == 1:
                out = np.empty((data.d, data.n))
                assert same_bits(gsum(p, out=out), col_sum) and same_bits(out, j_mat)
            else:
                assert same_bits(gsum(p), col_sum)
                assert same_bits(gsum(p) / data.n, row_full_grad(data, loss, p))


@pytest.mark.parametrize("density", [1.0, 0.3])
@pytest.mark.parametrize("block_bytes,loop_size", [(64, 1), (64, 256), (1 << 20, 256)])
def test_logistic_reference_matches_row_loop_descent(density, block_bytes, loop_size):
    data = random_dataset(np.random.default_rng(11), 40, 8, "logistic", density)
    loss = LossSpec("logistic", 0.05)
    step = 1.0 / float(row_smoothness_levels(data, loss)[0].mean())
    expect = row_gradient_descent(data, loss, step, tol=1e-10, max_iters=5000)
    with row_sum_patches(block_bytes, loop_size):
        assert same_bits(problem.exact_solution(data, loss, tol=1e-10), expect)


def test_logistic_reference_splits_rows_once(monkeypatch):
    # the binding takes its row views once, however many iterations follow
    data = random_dataset(np.random.default_rng(12), 30, 9, "logistic", 0.4)
    loss = LossSpec("logistic", 0.05)
    prof = problem.smoothness_profile(data, loss)
    calls = []
    split = Dataset.split
    monkeypatch.setattr(Dataset, "split", lambda self, flat: calls.append(1) or split(self, flat))
    counts = []
    for iters in (2, 60):
        calls.clear()
        with pytest.raises(ConvergenceError):
            problem.exact_solution(data, loss, tol=1e-300, max_iters=iters, profile=prof)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0
