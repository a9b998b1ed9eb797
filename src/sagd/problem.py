"""Loss models and problem profiling for strongly convex finite sums.

The objective is f(x) = (1/n) sum_i f_i(x) with

* ridge:     f_i(x) = 1/2 (a_i^T x - y_i)^2 + lambda/2 ||x||^2
* logistic:  f_i(x) = 1/2 log(1 + exp(-y_i a_i^T x)) + lambda/2 ||x||^2

Note the 1/2 factor on the logistic data term; it halves the usual
per-sample smoothness bound to ||a_i||^2 / 8.

A :class:`Dataset` stores its rows as CSR arrays; dense data has full
rows.  The full-data kernels round exactly like a loop over the rows: one
BLAS dot per row, called as one ``np.vecdot`` per row length (the rows are
grouped by entry count once per dataset, ``Dataset.row_groups``; dense data
is one group of views), and sums over rows in row order, each one
fold-and-reduce per block of rows (:func:`_row_sum`; rows of one entry
accumulate instead).  The full gradient is bound once
(:func:`gradient_sum_fn`): a block of terms is one broadcast product (dense)
or one flat scatter (sparse); the batch gradient shares its
:func:`loss_derivative`.
"""

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import ConvergenceError, InvalidInputError, NotStronglyConvexError
from .numerics import solve_spd, symmetric_eigen

LOSS_KINDS = ("ridge", "logistic")
MU_EXACT_EIGEN = "exact-eigen"
MU_LAMBDA_BOUND = "lambda-lower-bound"

# scratch bytes of one block of rows in an order-preserving row sum
_BLOCK_BYTES = 1 << 20
# ridge mu comes from an exact eigensolve up to this dimension, else lambda
_EXACT_MU_DIM_LIMIT = 512
# gradient-descent iterations the logistic reference solve may take
_GD_MAX_ITERS = 1_000_000


@dataclass(eq=False)  # arrays have no single truth value; compare by identity
class Dataset:
    """n samples a_i of dimension d in CSR form, plus labels y.

    Row i has feature slots ``indices[indptr[i]:indptr[i+1]]`` (strictly
    increasing; a row may be empty) holding the same slice of ``values``.
    The arrays are never written: derived datasets share the ones they keep.
    """

    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    labels: np.ndarray
    d: int

    def __post_init__(self):
        self.indptr = ptr = np.asarray(self.indptr, dtype=np.int64)
        self.indices = idx = np.ascontiguousarray(self.indices, dtype=np.int64)
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.float64)
        if not (isinstance(self.d, numbers.Integral) and self.d >= 1):
            raise InvalidInputError(f"Dataset needs an integer d >= 1, got {self.d!r}")
        if ptr.ndim != 1 or ptr.size < 2:
            raise InvalidInputError("Dataset needs at least one sample")
        if idx.ndim != 1 or self.values.shape != idx.shape:
            raise InvalidInputError("indices and values must be 1-D and equal length")
        if ptr[0] != 0 or ptr[-1] != idx.size or np.any(ptr[1:] < ptr[:-1]):
            raise InvalidInputError("indptr must rise from 0 to nnz without decreasing")
        if self.labels.shape != (self.n,):
            raise InvalidInputError("labels must have one entry per row")
        if idx.size and (idx.min() < 0 or idx.max() >= self.d):
            raise InvalidInputError(f"feature index out of range [0, {self.d})")
        # indices rise inside a row; the step into the next row may fall
        rises = idx[1:] > idx[:-1]
        starts = ptr[1:-1]
        rises[starts[(starts > 0) & (starts < idx.size)] - 1] = True
        if not rises.all():
            row = int(np.searchsorted(ptr, np.argmin(rises) + 1, side="right")) - 1
            raise InvalidInputError(f"row {row}: feature indices must be strictly increasing")
        if not (np.isfinite(self.labels).all() and np.isfinite(self.values).all()):
            raise InvalidInputError("labels and feature values must be finite")

    @property
    def n(self):
        return self.indptr.size - 1

    @property
    def is_dense(self):
        """Every row holds all d feature slots."""
        return self.values.size == self.n * self.d

    @cached_property
    def gram(self):
        """A^T A (:func:`_gram_matrix`), built on first use and kept: the
        arrays it derives from are never written.  Read-only."""
        h = _gram_matrix(self)
        h.flags.writeable = False
        return h

    @cached_property
    def row_groups(self):
        """The rows grouped by entry count k, built on first use and kept: one
        ``(rows, values, indices)`` per k, k rising, blocks (len(rows), k) with
        rows ascending.  Where row lengths never fall (all dense data) ``rows``
        are slices and the blocks views of the arrays, else index arrays and copies."""
        ptr, counts = self.indptr, np.diff(self.indptr)
        rising = bool(np.all(counts[1:] >= counts[:-1]))
        order = slice(None) if rising else np.argsort(counts, kind="stable")
        sizes = counts[order]
        cuts = [0, *(np.flatnonzero(sizes[1:] != sizes[:-1]) + 1).tolist(), self.n]
        groups = []
        for b, e in zip(cuts[:-1], cuts[1:]):
            k = int(sizes[b])
            rows = slice(b, e) if rising else order[b:e]
            take = slice(ptr[b], ptr[e]) if rising else ptr[rows][:, None] + np.arange(k)
            groups.append((rows, self.values[take].reshape(e - b, k),
                           self.indices[take].reshape(e - b, k)))
        return groups

    def dense_matrix(self):
        """The (n, d) data matrix; a read-only view of ``values`` for dense data."""
        if self.is_dense:
            a = self.values.reshape(self.n, self.d)
            a.flags.writeable = False
            return a
        a = np.zeros((self.n, self.d))
        a[np.repeat(np.arange(self.n), np.diff(self.indptr)), self.indices] = self.values
        return a

    def split(self, flat):
        """Per-row views of a length-nnz array (``indices`` or ``values``)."""
        if self.is_dense:
            return list(flat.reshape(self.n, self.d))
        bounds = self.indptr.tolist()
        return [flat[s:e] for s, e in zip(bounds[:-1], bounds[1:])]

    @classmethod
    def from_dense(cls, a, labels):
        a = np.array(a, dtype=np.float64)
        if a.ndim != 2:
            raise InvalidInputError("from_dense needs a 2-D matrix")
        n, d = a.shape
        indptr, indices = np.arange(n + 1) * d, np.tile(np.arange(d), n)
        return cls(indptr, indices, a.ravel(), labels, d)


@dataclass(frozen=True)
class LossSpec:
    """Which loss to use and its ridge-style regularization weight."""

    kind: str
    lam: float

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise InvalidInputError(f"unknown loss kind {self.kind!r}")
        if not (np.isfinite(self.lam) and self.lam >= 0.0):
            raise InvalidInputError("lambda must be finite and >= 0")


def check_logistic_labels(data):
    bad = ~np.isin(data.labels, (-1.0, 1.0))
    if np.any(bad):
        raise InvalidInputError(
            f"logistic loss needs labels in {{-1, +1}}; offending sample {np.argmax(bad)}"
        )


@dataclass(frozen=True)
class SmoothnessProfile:
    """All the closed forms read of a problem: n, the max and the mean of the
    per-sample smoothness constants (which stay with the data), and mu.

    Profiles built from data via :func:`smoothness_profile` always satisfy
    0 < mu <= L_bar <= L_max.  Hand-built profiles used for evaluating
    complexity formulas on parameter grids may place mu above L_bar; only
    an integer n >= 1, mu > 0 and finite constants 0 <= L_bar <= L_max are enforced.
    :meth:`uniform` and :meth:`from_bounds` record mu as ``MU_LAMBDA_BOUND``.
    """

    n: int
    L_max: float
    L_bar: float
    mu: float
    mu_source: str

    def __post_init__(self):
        if not (isinstance(self.n, numbers.Integral) and self.n >= 1):
            raise InvalidInputError(f"need an integer n >= 1, got {self.n}")
        if not (np.isfinite(self.mu) and self.mu > 0.0):
            raise NotStronglyConvexError(f"mu must be positive, got {self.mu}")
        if not (0.0 <= self.L_max < math.inf and 0.0 <= self.L_bar < math.inf):
            raise InvalidInputError("smoothness constants must be finite and >= 0")
        if self.L_bar > self.L_max * (1.0 + 1e-12):
            raise InvalidInputError("need L_bar <= L_max")

    @classmethod
    def uniform(cls, n, l_max, mu):
        """All samples share the same smoothness constant."""
        return cls(n, float(l_max), float(l_max), mu, MU_LAMBDA_BOUND)

    @classmethod
    def from_bounds(cls, n, l_max, l_bar, mu):
        """Profile of the smallest problem realizing (L_max, L_bar): one sample
        at L_max, the rest at the level that makes the mean come out right.
        L_bar is those levels' mean, which may differ from l_bar in the last bit."""
        if n < 1 or l_bar > l_max:
            raise InvalidInputError("need n >= 1 and L_bar <= L_max")
        if n == 1 or l_bar == l_max:
            return cls.uniform(n, l_max, mu)
        rest = (n * l_bar - l_max) / (n - 1)
        if rest < 0:
            raise InvalidInputError("L_bar too small to realize with nonneg constants")
        levels = np.full(n, rest)
        levels[0] = l_max
        return cls(n, float(l_max), float(levels.mean()), mu, MU_LAMBDA_BOUND)


def _sigmoid_neg(z):
    """sigmoid(-z) for a float z, computed without overflow on either tail."""
    ez = math.exp(-abs(z))
    return ez / (1.0 + ez) if z >= 0.0 else 1.0 / (1.0 + ez)


def loss_derivative(z, y, ridge):
    """The data terms' derivatives at the row dots z = A x, for arrays z, y:
    z - y (ridge) or -1/2 y sigmoid(-y z) (logistic), with the bits of
    :func:`gradient_fn`'s scalar form (libm exp, then array + and /)."""
    if ridge:
        return z - y
    t = y * z
    ez = np.fromiter(map(math.exp, (-np.abs(t)).tolist()), float, t.size)
    return -0.5 * y * (np.where(t >= 0.0, ez, 1.0) / (1.0 + ez))


def gradient_fn(data, loss):
    """Bind a fast per-sample gradient ``g(x, i)`` for repeated use.

    The returned callable allocates one fresh length-d array per call and
    never mutates its inputs.  Binding takes O(n) row views once; full rows
    never read their indices, so dense data takes no index views.
    """
    vals = data.split(data.values)
    idxs = None if data.is_dense else data.split(data.indices)
    y = data.labels
    lam = loss.lam
    d = data.d
    ridge = loss.kind == "ridge"

    def grad(x, i):
        v = vals[i]
        full = v.size == d
        z = v.dot(x) if full else v.dot(x[idxs[i]])  # ddot without the ufunc dispatch
        c = z - y[i] if ridge else -0.5 * y[i] * _sigmoid_neg(y[i] * z)
        if full:
            return v * c + lam * x
        g = lam * x
        g[idxs[i]] += v * c
        return g

    return grad


def batch_gradient_fn(data, loss):
    """Bind a vectorized per-subset gradient ``G(x, idx)``, one gradient per
    row of the result.

    Only available when every sample is dense (all feature slots present);
    returns None otherwise, and callers fall back to the per-sample path.
    """
    if not data.is_dense:
        return None
    a = data.dense_matrix()
    y = data.labels
    lam = loss.lam
    ridge = loss.kind == "ridge"

    def batch(x, idx):
        sub = a[idx]
        c = loss_derivative(sub @ x, y[idx], ridge)
        return sub * c[:, None] + lam * x

    return batch


def _block_rows(row_size):
    """Rows in one block of :func:`_row_sum` for rows of ``row_size`` floats."""
    return max(1, _BLOCK_BYTES // (8 * row_size))


def _row_sum(acc, n, block):
    """``acc`` plus rows 0..n-1, rounded exactly as ``for row: acc += row``.

    ``block(s, e)`` returns rows s..e-1 (each shaped like ``acc``, at most
    _BLOCK_BYTES in all) as a C-contiguous float64 array, free to overwrite.
    The running sum is folded into the first row and ``np.add.reduce`` adds
    the rows in order, as it does whenever rows hold two or more entries;
    it would sum rows of one entry pairwise, so those accumulate."""
    step = _block_rows(acc.size)
    for s in range(0, n, step):
        blk = block(s, min(s + step, n))
        blk[0] += acc
        if acc.size == 1:
            acc = np.add.accumulate(blk, axis=0, out=blk)[-1].copy()
        else:
            acc = np.add.reduce(blk, axis=0)
    return acc


def _row_dot(a, b):
    """Row by row dot products of the (rows, len) block ``a`` with the block
    or vector ``b``, bit-identical to ``v.dot(w)`` for each row: np.vecdot
    calls BLAS ddot once per row, as ndarray.dot does.  ndarray.dot takes a
    one-entry vector for a scalar and returns the plain product, which keeps
    the sign of a zero product that ddot (adding it to +0.0) drops, so rows
    of one entry multiply."""
    if a.shape[1] == 1:
        return a[:, 0] * b[..., 0]
    return np.vecdot(a, b)


def _row_dots_fn(data):
    """Bind ``dots(x)``: a_i^T x for every sample, each as ``v.dot(x)`` in
    :func:`gradient_fn` (:func:`_row_dot`; ``A @ x`` would round
    differently): one call per group of ``Dataset.row_groups``, whose rows
    read x as it is when they are full and ``x[indices]`` otherwise."""
    blocks = [(rows, v, None if v.shape[1] == data.d else ix) for rows, v, ix in data.row_groups]

    def dots(x):
        z = np.empty(data.n)
        for rows, v, ix in blocks:
            z[rows] = _row_dot(v, x if ix is None else x[ix])
        return z

    return dots


def _row_sq_norms(data):
    """||a_i||^2 for every sample, each as ``v.dot(v)``: one :func:`_row_dot`
    per group of ``Dataset.row_groups``."""
    out = np.empty(data.n)
    for rows, v, _ in data.row_groups:
        out[rows] = _row_dot(v, v)
    return out


def gradient_sum_fn(data, loss):
    """Bind ``gsum(x, out=None)``: sum_i grad f_i(x) in row order, each term
    bit-identical to :func:`gradient_fn`'s; with ``out`` (d x n) term i also
    lands in column i.

    Binding takes the buffers and one block of scratch once.  A block of
    terms c_i a_i + lambda x is one broadcast product for dense data, and
    lambda x plus one flat scatter of the block's entries for sparse data
    (indices rise within a row: no slot is hit twice).
    """
    dots = _row_dots_fn(data)
    y, lam, ridge = data.labels, loss.lam, loss.kind == "ridge"
    n, d = data.n, data.d
    step = _block_rows(d)  # the block rows of gsum's _row_sum
    scratch = np.empty((min(step, n), d))
    if data.is_dense:
        a = data.dense_matrix()

        def terms(coef, lamx, s, e):
            blk = np.multiply(a[s:e], coef[s:e, None], out=scratch[: e - s])
            blk += lamx
            return blk
    else:
        ptr, vals = data.indptr.tolist(), data.values
        rows = np.repeat(np.arange(n), np.diff(data.indptr))
        slots = (rows % step) * d + data.indices

        def terms(coef, lamx, s, e):
            lo, hi = ptr[s], ptr[e]
            blk = scratch[: e - s]
            blk[...] = lamx
            blk.reshape(-1)[slots[lo:hi]] += vals[lo:hi] * coef[rows[lo:hi]]
            return blk

    def gsum(x, out=None):
        coef = loss_derivative(dots(x), y, ridge)
        lamx = lam * x

        def block(s, e):
            g = terms(coef, lamx, s, e)
            if out is not None:
                out[:, s:e] = g.T
            return g

        return _row_sum(np.zeros(d), n, block)

    return gsum


def full_grad(data, loss, x):
    """Gradient of f, accumulated in fixed index order for reproducibility."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (data.d,):
        raise InvalidInputError(f"x has shape {x.shape}, expected ({data.d},)")
    return gradient_sum_fn(data, loss)(x) / data.n


def _gram_matrix(data):
    """A^T A accumulated row by row."""
    h = np.zeros((data.d, data.d))
    if data.is_dense:
        a = data.dense_matrix()
        # einsum without optimize multiplies each pair once, as np.outer does
        return _row_sum(h, data.n, lambda s, e: np.einsum("ri,rj->rij", a[s:e], a[s:e]))
    for ix, v in zip(data.split(data.indices), data.split(data.values)):
        h[np.ix_(ix, ix)] += np.outer(v, v)
    return h


def _ridge_rhs(data):
    """A^T y accumulated row by row: ``np.add.at`` adds the terms of a
    repeated slot in input order, which is row order."""
    rhs = np.zeros(data.d)
    terms = np.repeat(data.labels, np.diff(data.indptr))
    terms *= data.values  # in place: no second length-nnz array
    np.add.at(rhs, data.indices, terms)
    return rhs


def smoothness_profile(data, loss):
    """The data's :class:`SmoothnessProfile`: L_max and L_bar are the max and
    the mean of the per-sample smoothness constants L_i.

    Ridge: L_i = ||a_i||^2 + lambda and, when d <= _EXACT_MU_DIM_LIMIT,
    mu = lambda_min(A^T A)/n + lambda from an exact eigensolve; above the
    limit mu falls back to lambda (a valid lower bound: a smaller mu only
    inflates planned complexity, never breaks the stepsize guarantee).
    Logistic: L_i = ||a_i||^2 / 8 + lambda and mu = lambda.
    """
    lam = loss.lam
    sq_norms = _row_sq_norms(data)
    mu, source = lam, MU_LAMBDA_BOUND
    if loss.kind == "ridge":
        levels = sq_norms + lam
        if data.d <= _EXACT_MU_DIM_LIMIT:
            w, _ = symmetric_eigen(data.gram)
            mu, source = float(w[0]) / data.n + lam, MU_EXACT_EIGEN
    else:
        check_logistic_labels(data)
        levels = sq_norms / 8.0 + lam
    if mu <= 0.0:
        raise NotStronglyConvexError(
            f"objective is not strongly convex; use lambda > 0 (got mu = {mu:.3e})"
        )
    return SmoothnessProfile(data.n, float(levels.max()), float(levels.mean()), mu, source)


def exact_solution(data, loss, profile, tol=1e-12):
    """High-accuracy minimizer x* with ||grad f(x*)|| <= tol.

    Ridge is solved directly: (A^T A / n + lambda I) x = A^T y / n, with a
    few Newton refinement passes if the first solve leaves the gradient
    above tol.  Logistic runs full-gradient descent with stepsize 1/L_bar,
    at most ``_GD_MAX_ITERS`` iterations.
    Both bind the full gradient once (:func:`gradient_sum_fn`, with
    :func:`full_grad`'s bits), so no iteration rebuilds row views, and
    ridge reuses the Gram matrix the profile built (``Dataset.gram``).
    ``profile`` is the data's :func:`smoothness_profile`, whose L_bar sets
    the logistic stepsize.
    """
    if profile.n != data.n:
        raise InvalidInputError(f"profile has n = {profile.n}, data has n = {data.n}")
    n, d = data.n, data.d
    gsum = gradient_sum_fn(data, loss)
    if loss.kind == "ridge":
        h = data.gram / n
        h[np.diag_indices(d)] += loss.lam
        x = solve_spd(h, _ridge_rhs(data) / n)
        for refinements in range(4):
            g = gsum(x) / n
            gnorm = float(np.linalg.norm(g))
            if gnorm <= tol:
                return x
            if refinements < 3:
                x = x - solve_spd(h, g)
        raise ConvergenceError(
            f"ridge solve stalled at gradient norm {gnorm:.3e} > tol {tol:.3e}",
            achieved=gnorm,
        )
    check_logistic_labels(data)
    step = 1.0 / profile.L_bar
    x = np.zeros(d)
    gnorm = math.inf
    for _ in range(_GD_MAX_ITERS):
        g = gsum(x) / n
        gnorm = float(np.linalg.norm(g))
        if gnorm <= tol:
            return x
        x = x - step * g
    raise ConvergenceError(
        f"gradient descent did not reach tol {tol:.3e} in {_GD_MAX_ITERS} iterations "
        f"(achieved {gnorm:.3e})",
        achieved=gnorm,
    )


def normalize_rows(data):
    """Scale every row to unit Euclidean norm.  Labels are kept untouched.

    Idempotent: rows that already have norm 1 are returned bit-identical.
    """
    nrm = np.sqrt(_row_sq_norms(data))
    zero = np.flatnonzero(nrm == 0.0)
    if zero.size:
        raise InvalidInputError(f"cannot normalize zero row {zero[0]}")
    # already-unit rows divide by 1.0 and keep their bits (idempotence);
    # divide, not multiply by the reciprocal, for correctly rounded entries
    scale = np.where(np.abs(nrm - 1.0) <= 1e-12, 1.0, nrm)
    # dense rows divide as an (n, d) view, same bits, ~4x faster than an nnz-long np.repeat
    values = ((data.dense_matrix() / scale[:, None]).ravel() if data.is_dense
              else data.values / np.repeat(scale, np.diff(data.indptr)))
    return Dataset(data.indptr, data.indices, values, data.labels.copy(), data.d)
