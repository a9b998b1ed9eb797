"""The CSR array kernels reproduce the row-by-row loops bit for bit.

Every comparison is on the bytes of the float64 results, so even the sign
of a zero must match.  The block size of the order-preserving row sums is
drawn too, down to one row per block, so that the running sum crosses
block boundaries on these small datasets.
"""

from functools import cached_property
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


def assert_profile_matches(data, loss, levels, mu):
    """smoothness_profile against the row loop's levels and mu, bit for bit:
    its mu, L_max and L_bar, and the levels it reduces (||a_i||^2 + lambda for
    ridge, ||a_i||^2 / 8 + lambda for logistic) from the kernel's row norms.
    Returns the profile."""
    sq = problem._row_sq_norms(data)
    kernel = sq + loss.lam if loss.kind == "ridge" else sq / 8.0 + loss.lam
    prof = problem.smoothness_profile(data, loss)
    assert same_bits(kernel, levels) and same_bits(prof.mu, mu)
    assert same_bits(prof.L_max, levels.max()) and same_bits(prof.L_bar, levels.mean())
    return prof


def row_sum_patches(block_bytes):
    """Patch the block budget of the row sums."""
    return mock.patch.object(problem, "_BLOCK_BYTES", block_bytes)


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
    entries), a loss on it, a point x and a block budget."""
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
    return data, loss, x, block_bytes


@settings(max_examples=300, deadline=None)
@given(problems())
def test_array_kernels_match_row_loops(case):
    data, loss, x, block_bytes = case
    with row_sum_patches(block_bytes):
        assert same_bits(problem.full_grad(data, loss, x), row_full_grad(data, loss, x))
        table = init_table(data, loss, x)
        j_mat, col_sum = row_init_table_at_x(data, loss, x)
        assert same_bits(table.J, j_mat) and same_bits(table.col_sum, col_sum)
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
        assert_profile_matches(data, loss, levels, mu)


@settings(max_examples=150, deadline=None)
@given(problems(), st.integers(0, 2**32 - 1))
def test_bound_gradient_sum_matches_row_loop_on_every_call(case, seed):
    # one binding serves a sequence of points; a gather buffer or scratch
    # block left over from an earlier call would show up in a later one
    data, loss, x, block_bytes = case
    rng = np.random.default_rng(seed)
    points = [x, rng.standard_normal(data.d), rng.standard_normal(data.d) * 30.0]
    with row_sum_patches(block_bytes):
        gsum = problem.gradient_sum_fn(data, loss)
        for k, p in enumerate(points):
            j_mat, col_sum = row_init_table_at_x(data, loss, p)
            if k == 1:
                out = np.empty((data.d, data.n))
                assert same_bits(gsum(p, out=out), col_sum) and same_bits(out, j_mat)
            else:
                assert same_bits(gsum(p), col_sum)
                assert same_bits(gsum(p) / data.n, row_full_grad(data, loss, p))


# z where the logistic derivative meets a tail: signed zeros, exp's
# underflow near 745, past it, and subnormals
_TAIL_Z = [0.0, -0.0, 745.0, -745.0, 800.0, -800.0, 5e-324, -5e-324, 1e-310, -1e-310]


@settings(max_examples=300, deadline=None)
@given(st.lists(
    st.tuples(
        st.floats(-40.0, 40.0) | st.floats(allow_nan=False) | st.sampled_from(_TAIL_Z),
        st.sampled_from([-1.0, 1.0]),
    ),
    min_size=1, max_size=16,
))
def test_logistic_loss_derivative_matches_sigmoid_neg(pairs):
    # the batch and the full gradient take the array form, gradient_fn the scalar one
    z, y = (np.array(col) for col in zip(*pairs))
    scalar = [-0.5 * yi * problem._sigmoid_neg(yi * zi) for zi, yi in pairs]
    assert same_bits(problem.loss_derivative(z, y, ridge=False), scalar)


@pytest.mark.parametrize("density", [1.0, 0.3])
@pytest.mark.parametrize("block_bytes", [1, 64, 1 << 20])
def test_logistic_reference_matches_row_loop_descent(density, block_bytes):
    data = random_dataset(np.random.default_rng(11), 40, 8, "logistic", density)
    loss = LossSpec("logistic", 0.05)
    step = 1.0 / float(row_smoothness_levels(data, loss)[0].mean())
    expect = row_gradient_descent(data, loss, step, tol=1e-10, max_iters=5000)
    with row_sum_patches(block_bytes):
        prof = problem.smoothness_profile(data, loss)
        assert same_bits(problem.exact_solution(data, loss, prof, tol=1e-10), expect)


def row_loop_sum(block):
    acc = np.zeros(block.shape[1:])
    for row in block:
        acc += row
    return acc


def adversarial_block(rng, shape):
    """Entries of random sign and magnitude 1e-8 to 1e8: any change in the
    order of a sum shows in the low bits."""
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-8.0, 8.0, size=shape)


def test_add_reduce_adds_rows_in_order_when_rows_hold_two_or_more_entries():
    # the numpy property problem._row_sum rests on
    rng = np.random.default_rng(20)
    ks = [1, 2, 8, 9, 16, 17, 130, 1000, 3000, *rng.integers(1, 3000, size=6).tolist()]
    for k in ks:
        for m in (2, 3, 5):
            for shape in ((k, m), (k, m, m)):
                blk = adversarial_block(rng, shape)
                assert same_bits(np.add.reduce(blk, axis=0), row_loop_sum(blk)), (
                    f"numpy {np.__version__}: np.add.reduce over axis 0 of a C-contiguous "
                    f"{shape} float64 block no longer adds its rows in order"
                )


def test_add_reduce_sums_one_entry_rows_pairwise():
    # why problem._row_sum accumulates rows of one entry: numpy sums a
    # column of 9 pairwise and pairs the two 1s (numpy 2.4 gives 2), where
    # the row loop rounds 2**53 + 1 down twice and ends at 0
    blk = np.zeros((9, 1))
    blk[1:5, 0] = (2.0**53, 1.0, 1.0, -(2.0**53))
    assert row_loop_sum(blk)[0] == np.add.accumulate(blk, axis=0)[-1, 0] == 0.0
    assert np.add.reduce(blk, axis=0)[0] != 0.0, (
        f"numpy {np.__version__}: np.add.reduce no longer sums a column pairwise; "
        "problem._row_sum's np.add.accumulate branch may be unneeded"
    )


def test_row_sum_blocks_are_c_contiguous(monkeypatch):
    # np.add.reduce adds the rows of a C-contiguous block in order; a
    # fancy-indexed (F-ordered) block would silently be summed pairwise
    orders = []
    row_sum = problem._row_sum

    def checked(acc, n, block):
        def kept(s, e):
            blk = block(s, e)
            orders.append(blk.flags.c_contiguous)
            return blk

        return row_sum(acc, n, kept)

    monkeypatch.setattr(problem, "_row_sum", checked)
    rng = np.random.default_rng(30)
    for d, density in ((1, 1.0), (6, 1.0), (6, 0.5)):
        data = random_dataset(rng, 30, d, "ridge", density)
        loss = LossSpec("ridge", 0.1)
        with row_sum_patches(7 * 8 * d * d):  # several blocks, the last one partial
            problem._gram_matrix(data)
            problem.full_grad(data, loss, rng.standard_normal(d))
            init_table(data, loss, rng.standard_normal(d))
    assert len(orders) > 10 and all(orders)


@pytest.mark.parametrize("d", [1, 2, 10, 100])
def test_dense_gram_and_normalized_rows_match_row_loops(d):
    # the Gram's einsum blocks and the normalized rows' (n, d) division;
    # every third row is already unit and keeps its bits
    rng = np.random.default_rng(31)
    a = adversarial_block(rng, (40, d))
    a[::3] /= np.linalg.norm(a[::3], axis=1)[:, None]
    data = Dataset.from_dense(a, rng.standard_normal(40))
    with row_sum_patches(7 * 8 * d * d):  # 7-row blocks, the last one partial
        assert same_bits(problem._gram_matrix(data), row_gram_matrix(data))
    assert same_bits(problem._gram_matrix(data), row_gram_matrix(data))
    out = problem.normalize_rows(data)
    assert same_bits(out.values, row_normalized_values(data))
    assert same_bits(out.labels, data.labels) and out.labels is not data.labels


def test_add_at_adds_repeated_indices_in_input_order():
    # the numpy property problem._ridge_rhs and the sketch_oracle scatters rest on
    rng = np.random.default_rng(24)
    for size, slots in ((2, 1), (9, 1), (1000, 1), (1000, 3), (5000, 40)):
        for shape in ((slots,), (slots, slots)):  # flat and tuple indices
            idx = tuple(rng.integers(0, slots, size=size) for _ in shape)
            vals = adversarial_block(rng, size)
            got, want = np.zeros(shape), np.zeros(shape)
            np.add.at(got, idx, vals)
            for pos, v in enumerate(vals.tolist()):
                want[tuple(i[pos] for i in idx)] += v
            assert same_bits(got, want), (
                f"numpy {np.__version__}: np.add.at into a {shape} float64 array no longer "
                "adds the updates of a repeated index in input order"
            )


def test_vecdot_makes_one_blas_dot_per_row():
    # the numpy property problem._row_dot rests on: np.vecdot rounds each row
    # as ndarray.dot does, against a block of rows and a broadcast vector
    rng = np.random.default_rng(25)
    for k in [*range(71), 256, 257, 300, 513, 1024]:
        a, b = adversarial_block(rng, (5, k)), adversarial_block(rng, (5, k))
        x = adversarial_block(rng, k)
        for other, want in (
            (b, [u.dot(v) for u, v in zip(a, b)]),
            (x, [u.dot(x) for u in a]),
            (a, [u.dot(u) for u in a]),
        ):
            assert same_bits(np.vecdot(a, other), want), (
                f"numpy {np.__version__}: np.vecdot over rows of {k} float64 entries no "
                "longer rounds each row as ndarray.dot does"
            )


def test_dot_of_one_entry_rows_keeps_the_sign_of_a_zero_product():
    # why problem._row_dot multiplies rows of one entry: ndarray.dot returns
    # the plain product of one-entry vectors, where np.vecdot's ddot adds it
    # to +0.0; rows of any other length have the same bits either way
    neg, pos = np.array([-0.0]), np.array([0.0])
    assert np.signbit(neg.dot(pos)) and np.signbit(problem._row_dot(neg[None], pos))
    assert not np.signbit(np.vecdot(neg[None], pos)[0]), (
        f"numpy {np.__version__}: np.vecdot keeps the sign of a one-entry zero "
        "product; problem._row_dot's multiply branch may be unneeded"
    )
    rng = np.random.default_rng(26)
    for k in (0, 1, 2, 3, 16, 33):
        a, b = rng.choice([-0.0, 0.0, -1.5, 2.0], size=(2, 400, k))
        assert same_bits(problem._row_dot(a, b), [u.dot(v) for u, v in zip(a, b)])
        assert same_bits(problem._row_dot(a, b[0]), [u.dot(b[0]) for u in a])


@pytest.mark.parametrize("dense", [True, False])
def test_table_fill_keeps_the_signed_zeros_of_gradient_fn_on_one_entry_rows(dense):
    # a zero label, lambda = 0 and x = -0 carry the sign of a zero dot into
    # the table, which must hold what the solver's per-sample gradient writes
    if dense:
        data, x = Dataset.from_dense([[1.0], [-2.0]], [0.0, 0.0]), np.array([-0.0])
    else:
        data, x = Dataset([0, 1, 2], [0, 1], [1.0, -2.0], [0.0, 0.0], 2), np.array([-0.0, -0.0])
    loss = LossSpec("ridge", 0.0)
    grad = problem.gradient_fn(data, loss)
    table = init_table(data, loss, x)
    assert np.signbit(table.J[0, 0])
    assert same_bits(table.J, np.column_stack([grad(x, i) for i in range(data.n)]))


@pytest.mark.parametrize("dense", [True, False])
@pytest.mark.parametrize("kind", ["ridge", "logistic"])
@pytest.mark.parametrize("x0", [0.7, -0.0])
def test_one_column_kernels_match_row_loops(kind, dense, x0):
    # d = 1: every row sum has rows of one entry, 64 of them in one block,
    # enough for a pairwise sum to show; the hypothesis grid has n <= 12.
    # x = -0 and a zero label on every fourth row carry the sign of a zero
    # row dot into the ridge gradients
    rng = np.random.default_rng(21)
    n = 64
    a = adversarial_block(rng, (n, 1))
    if kind == "ridge":
        labels = adversarial_block(rng, n)
        labels[::4] = 0.0
    else:
        labels = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
    if dense:
        data = Dataset.from_dense(a, labels)
    else:
        keep = rng.uniform(size=n) < 0.8
        indptr = np.concatenate([[0], np.cumsum(keep)])
        data = Dataset(indptr, np.zeros(keep.sum(), dtype=np.int64), a[keep, 0], labels, 1)
    assert data.is_dense == dense
    loss = LossSpec(kind, 1e-3)
    x = np.array([x0])
    assert same_bits(problem.full_grad(data, loss, x), row_full_grad(data, loss, x))
    table = init_table(data, loss, x)
    j_mat, col_sum = row_init_table_at_x(data, loss, x)
    assert same_bits(table.J, j_mat) and same_bits(table.col_sum, col_sum)
    assert same_bits(problem._gram_matrix(data), row_gram_matrix(data))
    assert same_bits(problem._ridge_rhs(data), row_ridge_rhs(data))
    assert_profile_matches(data, loss, *row_smoothness_levels(data, loss))


def test_wide_sparse_logistic_matches_row_loops():
    # about the shape of the sparse-logistic benchmark, in 60-row blocks
    # (the last one partial), so the flat scatter slots wrap at every block
    data = random_dataset(np.random.default_rng(22), 200, 300, "logistic", 0.02)
    loss = LossSpec("logistic", 0.05)
    x = np.random.default_rng(23).standard_normal(data.d)
    step = 1.0 / float(row_smoothness_levels(data, loss)[0].mean())
    expect = row_gradient_descent(data, loss, step, tol=1e-5, max_iters=200)
    with row_sum_patches(60 * 8 * data.d):
        table = init_table(data, loss, x)
        j_mat, col_sum = row_init_table_at_x(data, loss, x)
        assert same_bits(table.J, j_mat) and same_bits(table.col_sum, col_sum)
        prof = problem.smoothness_profile(data, loss)
        assert same_bits(problem.exact_solution(data, loss, prof, tol=1e-5), expect)


def mixed_length_dataset(rng, lengths, d, kind):
    """One row per entry count in ``lengths`` (0 to d, slots at random),
    with labels suited to ``kind``; dense when every row is full."""
    keep = np.zeros((len(lengths), d), dtype=bool)
    for row, k in zip(keep, lengths):
        row[rng.choice(d, size=k, replace=False)] = True
    a = rng.standard_normal(keep.shape) * 0.3 * keep
    if kind == "ridge":
        labels = rng.standard_normal(keep.shape[0])
    else:
        labels = np.where(rng.uniform(size=keep.shape[0]) < 0.5, -1.0, 1.0)
    if keep.all():
        return Dataset.from_dense(a, labels)
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    return Dataset(indptr, np.nonzero(keep)[1], a[keep], labels, d)


@pytest.mark.parametrize("dense", [True, False])
@pytest.mark.parametrize("kind", ["ridge", "logistic"])
def test_long_and_mixed_length_rows_match_row_loops(kind, dense):
    # rows of 16 entries and more reach ddot's unrolled loop, which the
    # hypothesis grid (d <= 7) never does; the sparse rows mix every length
    # from empty to full in one dataset, so each length is its own group
    rng = np.random.default_rng(27)
    if dense:
        d, lengths = 40, [40] * 90
    else:
        d, lengths = 80, rng.permutation([0, 1, 2, 3, 7, 15, 16, 17, 31, 32, 33, 48, 64, 80] * 9)
    data = mixed_length_dataset(rng, lengths, d, kind)
    assert data.is_dense == dense
    loss = LossSpec(kind, 0.05)
    with row_sum_patches(25 * 8 * d):  # 25-row blocks, the last one partial
        for x in (rng.standard_normal(d) * 3.0, adversarial_block(rng, d)):
            assert same_bits(problem.full_grad(data, loss, x), row_full_grad(data, loss, x))
            table = init_table(data, loss, x)
            j_mat, col_sum = row_init_table_at_x(data, loss, x)
            assert same_bits(table.J, j_mat) and same_bits(table.col_sum, col_sum)
        prof = assert_profile_matches(data, loss, *row_smoothness_levels(data, loss))
        if kind == "ridge":
            assert same_bits(problem._gram_matrix(data), row_gram_matrix(data))
            assert same_bits(problem._ridge_rhs(data), row_ridge_rhs(data))
        else:
            expect = row_gradient_descent(data, loss, 1.0 / prof.L_bar, tol=1e-5, max_iters=400)
            assert same_bits(problem.exact_solution(data, loss, prof, tol=1e-5), expect)
    # normalizing refuses an empty row, so its norms are checked on the others
    if not dense:
        with pytest.raises(InvalidInputError, match="cannot normalize zero row"):
            problem.normalize_rows(data)
    nonempty = mixed_length_dataset(rng, [k for k in lengths if k], d, kind)
    assert same_bits(problem.normalize_rows(nonempty).values, row_normalized_values(nonempty))


@pytest.mark.parametrize("kind", ["ridge", "logistic"])
def test_rising_length_sparse_rows_match_row_loops(kind):
    # row lengths that never fall: the groups are views of the arrays, and
    # the full rows at the end (a sparse dataset's) read x as it is
    rng = np.random.default_rng(31)
    lengths = sorted([0, 1, 2, 16, 17, 33, 80] * 6)
    data = mixed_length_dataset(rng, lengths, 80, kind)
    assert not data.is_dense and all(isinstance(g[0], slice) for g in data.row_groups)
    loss = LossSpec(kind, 0.05)
    with row_sum_patches(10 * 8 * 80):
        x = rng.standard_normal(80) * 3.0
        assert same_bits(problem.full_grad(data, loss, x), row_full_grad(data, loss, x))
        table = init_table(data, loss, x)
        j_mat, col_sum = row_init_table_at_x(data, loss, x)
        assert same_bits(table.J, j_mat) and same_bits(table.col_sum, col_sum)
        assert_profile_matches(data, loss, *row_smoothness_levels(data, loss))


def test_logistic_reference_groups_rows_once(monkeypatch):
    # the profile, the reference (however many iterations it takes) and the
    # table fill share one grouping of the rows, kept by the dataset
    data = random_dataset(np.random.default_rng(12), 30, 9, "logistic", 0.4)
    loss = LossSpec("logistic", 0.05)
    calls, build = [], Dataset.row_groups.func
    counted = cached_property(lambda data: calls.append(data) or build(data))
    counted.__set_name__(Dataset, "row_groups")
    monkeypatch.setattr(Dataset, "row_groups", counted)
    prof = problem.smoothness_profile(data, loss)
    for iters in (2, 60):
        monkeypatch.setattr(problem, "_GD_MAX_ITERS", iters)
        with pytest.raises(ConvergenceError):
            problem.exact_solution(data, loss, prof, tol=1e-300)
    init_table(data, loss, np.zeros(data.d))
    assert len(calls) == 1 and calls[0] is data
