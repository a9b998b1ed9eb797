"""Reference methods written independently from the package.

The single-sample and minibatch variance-reduced methods have their own
loop and table handling and pin down the solver's reduction identities.
They mirror the solver's drift-control cadence (running column sum,
refreshed every n writes) so trajectories can be compared bit for bit.

The ``row_*`` functions are row-by-row loops over one (indices, values)
pair per sample: the full-data kernels as they were written before the
dataset moved to CSR arrays.  The package's array kernels must reproduce
them bit for bit.

``ScalarRng`` and ``arange_sample_subset`` are the random stream and the
subset sampler one word at a time, as they were written before the
generator read its words through a buffered lane stream.  ``SeededRng``
and ``sample_subset`` must reproduce them bit for bit.

The ``loop_*`` functions are the enumeration oracles one sampling atom or
one subset at a time, as they were written before the oracles scattered
whole enumerations through ``np.add.at``; they enumerate the atoms with
their own ``itertools.combinations``.  The ``sketch_oracle`` functions
must reproduce them bit for bit.
"""

import itertools
import math

import numpy as np

from sagd.numerics import SeededRng, sample_subset, symmetric_eigen
from sagd.problem import batch_gradient_fn, gradient_fn
from sagd.sketch_oracle import bias_correction_of

_MASK64 = (1 << 64) - 1


class ScalarRng:
    """xoshiro256** seeded through splitmix64, one word per call."""

    def __init__(self, seed):
        z = seed
        self.s = []
        for _ in range(4):
            z = (z + 0x9E3779B97F4A7C15) & _MASK64
            w = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            w = ((w ^ (w >> 27)) * 0x94D049BB133111EB) & _MASK64
            self.s.append(w ^ (w >> 31))
        self.spare = None

    def next_u64(self):
        s0, s1, s2, s3 = self.s
        out = (((((s1 * 5) & _MASK64) << 7) | (((s1 * 5) & _MASK64) >> 57)) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
        self.s = [s0, s1, s2, s3]
        return out

    def uniform(self):
        return (self.next_u64() >> 11) * 2.0 ** -53

    def randint_below(self, n):
        if n == 1:
            return 0
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def normal(self):
        if self.spare is not None:
            z, self.spare = self.spare, None
            return z
        u1 = ((self.next_u64() >> 11) + 1) * 2.0 ** -53
        u2 = (self.next_u64() >> 11) * 2.0 ** -53
        r = math.sqrt(-2.0 * math.log(u1))
        a = 2.0 * math.pi * u2
        self.spare = r * math.sin(a)
        return r * math.cos(a)

    def normals(self, count):
        """``count`` draws of ``normal()``; an odd count drops the sine half
        of the last pair, which ``normal()`` would keep for its next call."""
        out = [self.normal() for _ in range(count)]
        self.spare = None
        return out


def arange_sample_subset(rng, n, tau):
    """Partial Fisher-Yates over a freshly allocated index array of length n."""
    if tau == n:
        return np.arange(n, dtype=np.int64)
    scratch = np.arange(n, dtype=np.int64)
    for i in range(tau):
        j = i + rng.randint_below(n - i)
        scratch[i], scratch[j] = scratch[j], scratch[i]
    picked = scratch[:tau]
    picked.sort()
    return picked


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
    """Gradient of f_i at x.  Row dots are ``v.dot``, as in ``gradient_fn``:
    on a one-entry row it keeps the sign of a zero product, which ``v @ x``
    (BLAS ddot, adding to +0.0) drops."""
    idx, v = rows[i]
    lam = loss.lam
    full = v.size == d
    if loss.kind == "ridge":
        if full:
            r = v.dot(x) - y[i]
            return v * r + lam * x
        c = v.dot(x[idx]) - y[i]
    else:
        z = y[i] * v.dot(x if full else x[idx])
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
        z = v.dot(x[idx])
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


def loop_atoms(n, tau, q):
    """(mass, index tuple) of every sampling atom: the n singletons, then
    the tau-subsets in ``itertools.combinations`` order."""
    atoms = [((1.0 - q) / n, (j,)) for j in range(n)]
    subset_mass = q / math.comb(n, tau)
    atoms.extend((subset_mass, combo) for combo in itertools.combinations(range(n), tau))
    return atoms


def loop_expected_projection(n, tau, q):
    """Sum_atoms p * Pi, one atom at a time."""
    out = np.zeros((n, n))
    for p, indices in loop_atoms(n, tau, q):
        idx = list(indices)
        out[idx, idx] += p
    return out


def loop_residual_eigenvalues(n, tau, q):
    """Eigenvalues of c^2 E[(Pi e)(Pi e)^T] - e e^T, the second moment
    summed one atom's outer product at a time."""
    m = np.zeros((n, n))
    for p, indices in loop_atoms(n, tau, q):
        e_s = np.zeros(n)
        e_s[list(indices)] = 1.0
        m += p * np.outer(e_s, e_s)
    c = bias_correction_of(np.diag(m))
    m *= c * c
    m -= np.ones((n, n))
    w, _ = symmetric_eigen(m)
    return w


def loop_smoothness_max_term(levels, tau):
    """max_i of the subset means summed over the tau-subsets holding i, one
    subset and one index at a time."""
    levels = np.asarray(levels, dtype=np.float64)
    totals = np.zeros(levels.size)
    for combo in itertools.combinations(range(levels.size), tau):
        mean = levels[list(combo)].mean()
        for i in combo:
            totals[i] += mean
    return float(totals.max())
