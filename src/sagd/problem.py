"""Loss models and problem profiling for strongly convex finite sums.

The objective is f(x) = (1/n) sum_i f_i(x) with

* ridge:     f_i(x) = 1/2 (a_i^T x - y_i)^2 + lambda/2 ||x||^2
* logistic:  f_i(x) = 1/2 log(1 + exp(-y_i a_i^T x)) + lambda/2 ||x||^2

Note the 1/2 factor on the logistic data term; it halves the usual
per-sample smoothness bound to ||a_i||^2 / 8.
"""

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ConvergenceError, InvalidInputError, NotStronglyConvexError
from .numerics import SparseRow, solve_spd, symmetric_eigen

LOSS_KINDS = ("ridge", "logistic")
MU_EXACT_EIGEN = "exact-eigen"
MU_LAMBDA_BOUND = "lambda-lower-bound"


@dataclass
class Dataset:
    """n samples of dimension d: sparse rows a_i plus labels y."""

    rows: list
    labels: np.ndarray
    d: int
    normalized: bool = False

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.float64)
        if self.d < 1:
            raise InvalidInputError("Dataset needs d >= 1")
        if len(self.rows) < 1:
            raise InvalidInputError("Dataset needs at least one sample")
        if self.labels.shape != (len(self.rows),):
            raise InvalidInputError("labels must have one entry per row")
        if not np.all(np.isfinite(self.labels)):
            raise InvalidInputError("labels must be finite")
        for i, row in enumerate(self.rows):
            if not isinstance(row, SparseRow) or row.dim != self.d:
                raise InvalidInputError(f"row {i} does not have dim {self.d}")
        if self.normalized:
            for i, row in enumerate(self.rows):
                if abs(row.norm() - 1.0) > 1e-12:
                    raise InvalidInputError(
                        f"normalized dataset has row {i} with norm != 1"
                    )

    @property
    def n(self):
        return len(self.rows)

    def dense_matrix(self):
        """Materialize the (n, d) data matrix."""
        a = np.zeros((self.n, self.d))
        for i, row in enumerate(self.rows):
            a[i, row.indices] = row.values
        return a

    @classmethod
    def from_dense(cls, a, labels, normalized=False):
        a = np.asarray(a, dtype=np.float64)
        n, d = a.shape
        idx = np.arange(d, dtype=np.int64)
        rows = [SparseRow(d, idx, a[i].copy()) for i in range(n)]
        return cls(rows=rows, labels=np.asarray(labels, float), d=d, normalized=normalized)


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
    """Per-sample smoothness constants plus the strong convexity constant.

    Profiles built from data via :func:`smoothness_profile` always satisfy
    0 < mu <= L_bar <= L_max.  Hand-built profiles used for evaluating
    complexity formulas on parameter grids may place mu above L_bar; only
    mu > 0 and consistency of L_max / L_bar with L are enforced here.
    """

    L: np.ndarray
    L_max: float
    L_bar: float
    mu: float
    mu_source: str

    def __post_init__(self):
        object.__setattr__(self, "L", np.asarray(self.L, dtype=np.float64))
        if self.L.ndim != 1 or self.L.size < 1:
            raise InvalidInputError("L must be a nonempty vector")
        if not (np.isfinite(self.mu) and self.mu > 0.0):
            raise NotStronglyConvexError(f"mu must be positive, got {self.mu}")
        if not (np.isfinite(self.L_max) and np.isfinite(self.L_bar) and np.isfinite(self.L).all()):
            raise InvalidInputError("smoothness constants must be finite")
        if abs(self.L_max - float(self.L.max())) > 1e-12 * max(1.0, self.L_max):
            raise InvalidInputError("L_max does not match max(L)")
        if abs(self.L_bar - float(self.L.mean())) > 1e-12 * max(1.0, self.L_bar):
            raise InvalidInputError("L_bar does not match mean(L)")
        if self.L_bar > self.L_max * (1.0 + 1e-12):
            raise InvalidInputError("need L_bar <= L_max")

    @property
    def n(self):
        return self.L.size

    @classmethod
    def uniform(cls, n, l_max, mu, mu_source=MU_LAMBDA_BOUND):
        """All samples share the same smoothness constant."""
        return cls(np.full(n, float(l_max)), float(l_max), float(l_max), mu, mu_source)

    @classmethod
    def from_bounds(cls, n, l_max, l_bar, mu, mu_source=MU_LAMBDA_BOUND):
        """Smallest profile realizing given (L_max, L_bar): one sample at
        L_max, the rest at the level that makes the mean come out right."""
        if n < 1 or l_bar > l_max:
            raise InvalidInputError("need n >= 1 and L_bar <= L_max")
        if n == 1 or l_bar == l_max:
            return cls.uniform(n, l_max, mu, mu_source)
        rest = (n * l_bar - l_max) / (n - 1)
        if rest < 0:
            raise InvalidInputError("L_bar too small to realize with nonneg constants")
        levels = np.full(n, rest)
        levels[0] = l_max
        return cls(levels, float(l_max), float(levels.mean()), mu, mu_source)


def gradient_fn(data, loss):
    """Bind a fast per-sample gradient ``g(x, i)`` for repeated use.

    The returned callable allocates one fresh length-d array per call and
    never mutates its inputs.
    """
    rows = data.rows
    y = data.labels
    lam = loss.lam
    d = data.d
    if loss.kind == "ridge":

        def grad(x, i):
            row = rows[i]
            v = row.values
            if v.size == d:
                r = v @ x - y[i]
                return v * r + lam * x
            idx = row.indices
            r = v @ x[idx] - y[i]
            g = lam * x
            g[idx] += v * r
            return g

    else:

        def grad(x, i):
            row = rows[i]
            v = row.values
            full = v.size == d
            z = y[i] * (v @ x if full else v @ x[row.indices])
            # sigmoid(-z), computed without overflow on either tail
            if z >= 0.0:
                ez = math.exp(-z)
                s = ez / (1.0 + ez)
            else:
                s = 1.0 / (1.0 + math.exp(z))
            c = -0.5 * y[i] * s
            if full:
                return v * c + lam * x
            g = lam * x
            g[row.indices] += v * c
            return g

    return grad


def batch_gradient_fn(data, loss):
    """Bind a vectorized per-subset gradient ``G(x, idx)``, one gradient per
    row of the result.

    Only available when every sample is dense (all feature slots present);
    returns None otherwise, and callers fall back to the per-sample path.
    """
    if any(row.values.size != data.d for row in data.rows):
        return None
    a = np.vstack([row.values for row in data.rows])
    y = data.labels
    lam = loss.lam
    if loss.kind == "ridge":

        def batch(x, idx):
            sub = a[idx]
            r = sub @ x - y[idx]
            return sub * r[:, None] + lam * x

    else:
        from scipy.special import expit

        def batch(x, idx):
            sub = a[idx]
            z = y[idx] * (sub @ x)
            c = -0.5 * y[idx] * expit(-z)
            return sub * c[:, None] + lam * x

    return batch


def sample_grad(data, loss, x, i):
    """Gradient of the single-sample objective f_i at x."""
    if not 0 <= i < data.n:
        raise InvalidInputError(f"sample index {i} out of range [0, {data.n})")
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (data.d,):
        raise InvalidInputError(f"x has shape {x.shape}, expected ({data.d},)")
    return gradient_fn(data, loss)(x, i)


def full_grad(data, loss, x):
    """Gradient of f, accumulated in fixed index order for reproducibility."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (data.d,):
        raise InvalidInputError(f"x has shape {x.shape}, expected ({data.d},)")
    grad = gradient_fn(data, loss)
    acc = np.zeros(data.d)
    for i in range(data.n):
        acc += grad(x, i)
    return acc / data.n


def objective(data, loss, x):
    """Objective value f(x)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (data.d,):
        raise InvalidInputError(f"x has shape {x.shape}, expected ({data.d},)")
    y = data.labels
    total = 0.0
    if loss.kind == "ridge":
        for i, row in enumerate(data.rows):
            r = row.values @ x[row.indices] - y[i]
            total += r * r
        total /= 2.0 * data.n
    else:
        for i, row in enumerate(data.rows):
            z = y[i] * (row.values @ x[row.indices])
            total += np.logaddexp(0.0, -z)
        total /= 2.0 * data.n
    reg = 0.5 * loss.lam * float(x @ x)
    return float(total) + reg


def _gram_matrix(data):
    """A^T A accumulated row by row."""
    h = np.zeros((data.d, data.d))
    for row in data.rows:
        v = row.values
        if v.size == data.d:
            h += np.outer(v, v)
        else:
            ix = np.ix_(row.indices, row.indices)
            h[ix] += np.outer(v, v)
    return h


def smoothness_profile(data, loss, exact_mu_dim_limit=512):
    """Per-sample smoothness constants and the strong convexity constant.

    Ridge: L_i = ||a_i||^2 + lambda and, when d <= exact_mu_dim_limit,
    mu = lambda_min(A^T A)/n + lambda from an exact eigensolve; above the
    limit mu falls back to lambda (a valid lower bound: a smaller mu only
    inflates planned complexity, never breaks the stepsize guarantee).
    Logistic: L_i = ||a_i||^2 / 8 + lambda and mu = lambda.
    """
    lam = loss.lam
    sq_norms = np.array([row.values @ row.values for row in data.rows])
    if loss.kind == "ridge":
        levels = sq_norms + lam
        if data.d <= exact_mu_dim_limit:
            w, _ = symmetric_eigen(_gram_matrix(data))
            mu = float(w[0]) / data.n + lam
            source = MU_EXACT_EIGEN
        else:
            mu = lam
            source = MU_LAMBDA_BOUND
    else:
        check_logistic_labels(data)
        levels = sq_norms / 8.0 + lam
        mu = lam
        source = MU_LAMBDA_BOUND
    if mu <= 0.0:
        raise NotStronglyConvexError(
            "objective is not strongly convex; use lambda > 0 "
            f"(got mu = {mu:.3e})"
        )
    return SmoothnessProfile(
        L=levels,
        L_max=float(levels.max()),
        L_bar=float(levels.mean()),
        mu=mu,
        mu_source=source,
    )


def exact_solution(data, loss, tol=1e-12, max_iters=1_000_000):
    """High-accuracy minimizer x* with ||grad f(x*)|| <= tol.

    Ridge is solved directly: (A^T A / n + lambda I) x = A^T y / n, with a
    few Newton refinement passes if the first solve leaves the gradient
    above tol.  Logistic runs full-gradient descent with stepsize 1/L_bar.
    """
    profile = smoothness_profile(data, loss)
    n, d = data.n, data.d
    if loss.kind == "ridge":
        h = _gram_matrix(data) / n
        h[np.diag_indices(d)] += loss.lam
        rhs = np.zeros(d)
        for i, row in enumerate(data.rows):
            rhs[row.indices] += data.labels[i] * row.values
        rhs /= n
        x = solve_spd(h, rhs)
        for _ in range(3):
            g = full_grad(data, loss, x)
            gnorm = float(np.linalg.norm(g))
            if gnorm <= tol:
                return x
            x = x - solve_spd(h, g)
        g = full_grad(data, loss, x)
        gnorm = float(np.linalg.norm(g))
        if gnorm <= tol:
            return x
        raise ConvergenceError(
            f"ridge solve stalled at gradient norm {gnorm:.3e} > tol {tol:.3e}",
            achieved=gnorm,
        )
    check_logistic_labels(data)
    step = 1.0 / profile.L_bar
    x = np.zeros(d)
    gnorm = math.inf
    for _ in range(max_iters):
        g = full_grad(data, loss, x)
        gnorm = float(np.linalg.norm(g))
        if gnorm <= tol:
            return x
        x = x - step * g
    raise ConvergenceError(
        f"gradient descent did not reach tol {tol:.3e} in {max_iters} iterations "
        f"(achieved {gnorm:.3e})",
        achieved=gnorm,
    )


def normalize_rows(data):
    """Scale every row to unit Euclidean norm.  Labels are kept untouched.

    Idempotent: rows that already have norm 1 are returned bit-identical.
    """
    rows = []
    for i, row in enumerate(data.rows):
        nrm = row.norm()
        if nrm == 0.0:
            raise InvalidInputError(f"cannot normalize zero row {i}")
        if abs(nrm - 1.0) <= 1e-12:
            rows.append(row)  # already unit; keep bits so the op is idempotent
        else:
            # divide (not multiply by the reciprocal) for correctly rounded entries
            rows.append(SparseRow(row.dim, row.indices, row.values / nrm))
    return Dataset(rows=rows, labels=data.labels.copy(), d=data.d, normalized=True)
