"""Reference methods written independently from the package.

The single-sample and minibatch variance-reduced methods have their own
loop and table handling and pin down the solver's reduction identities.
They mirror the solver's drift-control cadence (running column sum,
refreshed every n writes) so trajectories can be compared bit for bit.

The ``row_*`` functions are row-by-row loops over one (indices, values)
pair per sample: the full-data kernels as they were written before the
dataset moved to CSR arrays.  The package's array kernels must reproduce
them bit for bit.
"""

import math

import numpy as np

from sagd.numerics import SeededRng, sample_subset, symmetric_eigen
from sagd.problem import batch_gradient_fn, gradient_fn


def reference_saga(data, loss, x0, alpha, seed, steps):
    """Plain single-sample method with a gradient table initialized at x0."""
    grad = gradient_fn(data, loss)
    n, d = data.n, data.d
    rng = SeededRng(seed)
    table = np.empty((d, n))
    col_sum = np.zeros(d)
    for j in range(n):
        g = grad(x0, j)
        table[:, j] = g
        col_sum += g
    writes = 0
    inv_n = 1.0 / n
    x = x0.copy()
    out = [x.copy()]
    for _ in range(steps):
        j = rng.randint_below(n)
        g = grad(x, j)
        x = x - alpha * (1.0 * (g - table[:, j]) + inv_n * col_sum)
        col_sum += g - table[:, j]
        table[:, j] = g
        writes += 1
        if writes >= n:
            col_sum = table.sum(axis=1)
            writes = 0
        out.append(x.copy())
    return out


def reference_minibatch_saga(data, loss, x0, alpha, seed, steps, tau):
    """Vectorized minibatch variant: tau fresh gradients per step, each
    replacing its table column."""
    batch = batch_gradient_fn(data, loss)
    n, d = data.n, data.d
    rng = SeededRng(seed)
    grad = gradient_fn(data, loss)
    table = np.empty((d, n))
    col_sum = np.zeros(d)
    for j in range(n):
        g = grad(x0, j)
        table[:, j] = g
        col_sum += g
    writes = 0
    inv_n = 1.0 / n
    inv_tau = 1.0 / tau
    x = x0.copy()
    out = [x.copy()]
    for _ in range(steps):
        idx = sample_subset(rng, n, tau)
        g_rows = batch(x, idx)
        diff = g_rows.sum(axis=0) - table[:, idx].sum(axis=1)
        x = x - alpha * (inv_tau * diff + inv_n * col_sum)
        col_sum += diff
        table[:, idx] = g_rows.T
        writes += tau
        if writes >= n:
            col_sum = table.sum(axis=1)
            writes = 0
        out.append(x.copy())
    return out


def split_rows(data):
    """One freshly allocated (indices, values) pair per sample."""
    p = data.indptr
    return [
        (data.indices[p[i] : p[i + 1]].copy(), data.values[p[i] : p[i + 1]].copy())
        for i in range(data.n)
    ]


def row_grad(rows, y, d, loss, x, i):
    """Gradient of f_i at x."""
    idx, v = rows[i]
    lam = loss.lam
    full = v.size == d
    if loss.kind == "ridge":
        if full:
            r = v @ x - y[i]
            return v * r + lam * x
        c = v @ x[idx] - y[i]
    else:
        z = y[i] * (v @ x if full else v @ x[idx])
        if z >= 0.0:
            ez = math.exp(-z)
            s = ez / (1.0 + ez)
        else:
            s = 1.0 / (1.0 + math.exp(z))
        c = -0.5 * y[i] * s
        if full:
            return v * c + lam * x
    g = lam * x
    g[idx] += v * c
    return g


def row_full_grad(data, loss, x):
    rows = split_rows(data)
    acc = np.zeros(data.d)
    for i in range(data.n):
        acc += row_grad(rows, data.labels, data.d, loss, x, i)
    return acc / data.n


def row_gradient_descent(data, loss, step, tol, max_iters):
    """The logistic reference solution: gradient descent from 0 over the
    row-loop full gradient, stopping once its norm is at most tol."""
    x = np.zeros(data.d)
    for _ in range(max_iters):
        g = row_full_grad(data, loss, x)
        if float(np.linalg.norm(g)) <= tol:
            return x
        x = x - step * g
    raise AssertionError(f"row-loop descent did not reach tol {tol} in {max_iters} iterations")


def row_init_table_at_x(data, loss, x):
    """Table columns and their running sum, as the at-x0 table fill."""
    rows = split_rows(data)
    j_mat = np.empty((data.d, data.n))
    acc = np.zeros(data.d)
    for j in range(data.n):
        g = row_grad(rows, data.labels, data.d, loss, x, j)
        j_mat[:, j] = g
        acc += g
    return j_mat, acc


def row_objective(data, loss, x):
    y = data.labels
    total = 0.0
    for i, (idx, v) in enumerate(split_rows(data)):
        z = v @ x[idx]
        if loss.kind == "ridge":
            r = z - y[i]
            total += r * r
        else:
            total += np.logaddexp(0.0, -(y[i] * z))
    total /= 2.0 * data.n
    return float(total) + 0.5 * loss.lam * float(x @ x)


def row_gram_matrix(data):
    h = np.zeros((data.d, data.d))
    for idx, v in split_rows(data):
        if v.size == data.d:
            h += np.outer(v, v)
        else:
            h[np.ix_(idx, idx)] += np.outer(v, v)
    return h


def row_ridge_rhs(data):
    rhs = np.zeros(data.d)
    for i, (idx, v) in enumerate(split_rows(data)):
        rhs[idx] += data.labels[i] * v
    return rhs


def row_normalized_values(data):
    """The normalized rows' values, concatenated; ValueError names a zero row."""
    out = []
    for i, (_, v) in enumerate(split_rows(data)):
        nrm = float(np.linalg.norm(v))
        if nrm == 0.0:
            raise ValueError(f"cannot normalize zero row {i}")
        out.append(v if abs(nrm - 1.0) <= 1e-12 else v / nrm)
    return np.concatenate(out)


def row_smoothness_levels(data, loss):
    """(L, mu) of the smoothness profile, with mu from the exact eigensolve."""
    sq_norms = np.array([v @ v for _, v in split_rows(data)])
    if loss.kind == "ridge":
        w, _ = symmetric_eigen(row_gram_matrix(data))
        return sq_norms + loss.lam, float(w[0]) / data.n + loss.lam
    return sq_norms / 8.0 + loss.lam, loss.lam
