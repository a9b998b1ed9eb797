"""The CSR array kernels reproduce the row-by-row loops bit for bit.

Every comparison is on the bytes of the float64 results, so even the sign
of a zero must match.  The block size of the order-preserving row sums is
drawn too, down to one row per block, so that the running sum crosses
block boundaries on these small datasets.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_methods import (
    row_full_grad,
    row_gram_matrix,
    row_init_table_at_x,
    row_normalized_values,
    row_objective,
    row_ridge_rhs,
    row_smoothness_levels,
)
from sagd import problem
from sagd.exceptions import InvalidInputError
from sagd.problem import Dataset, LossSpec
from sagd.solver import init_table


def same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


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
    with mock.patch.object(problem, "_BLOCK_BYTES", block_bytes):
        assert same_bits(problem.full_grad(data, loss, x), row_full_grad(data, loss, x))
        table = init_table(data, loss, x, "at-x0", None)
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
        assert same_bits(out.values, expect) and out.normalized
        assert np.array_equal(out.indptr, data.indptr)

    levels, mu = row_smoothness_levels(data, loss)
    if mu > 0.0:
        prof = problem.smoothness_profile(data, loss)
        assert same_bits(prof.L, levels) and same_bits(prof.mu, mu)
        assert prof.L_max == float(levels.max()) and prof.L_bar == float(levels.mean())
