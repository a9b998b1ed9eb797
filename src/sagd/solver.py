"""The interpolated variance-reduced iteration with its gradient table.

Each step flips a q-coin: with probability q it takes a tau-minibatch
table-corrected step, otherwise a single-sample one.  Both branches share
the bias correction theta = n / (q (tau - 1) + 1), so the update direction
is an unbiased estimate of the full gradient whatever the table holds.
With q = 0 the iteration is exactly the classical single-sample method;
with q = 1 and tau = n it is exactly full gradient descent.
"""

import functools
import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInputError
from .numerics import SeededRng, sample_subset
# full_grad, smoothness_profile: imported only for perfbench/tracer.py's spans
from .problem import (  # noqa: F401
    check_logistic_labels,
    batch_gradient_fn,
    full_grad,
    gradient_fn,
    gradient_sum_fn,
    smoothness_profile,
)

@dataclass
class GradientTable:
    """Stored per-sample gradients (one column each) plus their running sum.

    The running sum is maintained incrementally and recomputed from scratch
    every n column writes to bound floating-point drift.
    """

    J: np.ndarray
    col_sum: np.ndarray
    updates_since_refresh: int = 0

    @property
    def n(self):
        return self.J.shape[1]

    def write_column(self, j, g, diff):
        """Overwrite column ``j`` with ``g``; ``diff`` must equal ``g`` minus the old column."""
        self.col_sum += diff
        self.J[:, j] = g
        self.updates_since_refresh += 1
        if self.updates_since_refresh >= self.J.shape[1]:
            self.refresh()

    def write_columns(self, idx, grads_rows, diff):
        """Overwrite the columns ``idx`` with the rows of ``grads_rows``;
        ``diff`` must equal the row sum minus the old column sum."""
        self.col_sum += diff
        self.J[:, idx] = grads_rows.T
        self.updates_since_refresh += len(idx)
        if self.updates_since_refresh >= self.J.shape[1]:
            self.refresh()

    def refresh(self):
        self.col_sum = self.J.sum(axis=1)
        self.updates_since_refresh = 0


@dataclass
class SolverConfig:
    """One solve's parameters.  ``alpha`` is the stepsize; the theoretical
    one is ``complexity.stepsize(InterpolationConfig(q, tau, n), profile)``."""

    q: float
    tau: int
    alpha: float
    seed: int = 0
    tol: float = 1e-10
    max_effective_passes: float = 100.0
    check_every_passes: float = 0.25

    def __post_init__(self):
        if not (isinstance(self.q, numbers.Real) and 0.0 <= self.q <= 1.0):
            raise InvalidInputError(f"q must be in [0, 1], got {self.q}")
        if not (isinstance(self.tau, numbers.Integral) and self.tau >= 1):
            raise InvalidInputError(f"tau must be an integer >= 1, got {self.tau}")
        for name in ("tol", "alpha", "max_effective_passes", "check_every_passes"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and np.isfinite(value) and value > 0.0):
                raise InvalidInputError(f"{name} must be finite and positive, got {value}")

    @property
    def cost_per_iter(self):
        """Expected gradient evaluations per step, q (tau - 1) + 1."""
        return self.q * (self.tau - 1) + 1.0


@dataclass
class TrajectoryPoint:
    iter: int
    grad_evals: int
    wall_seconds: float
    error: float
    lyapunov: float  # None unless the run is given a Lyapunov reference


@dataclass
class SolverState:
    """What a step mutates; owned by a single run."""

    x: np.ndarray
    table: GradientTable
    iters: int = 0
    grad_evals: int = 0


@dataclass
class RunResult:
    points: list
    converged: bool
    x: np.ndarray
    seed: int
    diverged: bool  # stopped at a checkpoint whose error is not finite

    def passes_to_tol(self, tol, n):
        """Effective passes at the first checkpoint with error <= tol."""
        for p in self.points:
            if p.error <= tol:
                return p.grad_evals / n
        return None


def init_table(data, loss, x):
    """The gradient table at x: column j holds the gradient of sample j
    (n gradient evaluations, which the caller accounts for)."""
    j_mat = np.empty((data.d, data.n))
    return GradientTable(J=j_mat, col_sum=gradient_sum_fn(data, loss)(x, out=j_mat))


def sagd_step(state, cfg, rng, grad, batch_grad):
    """Advance the iterate by one step, updating the table in place.

    ``grad`` and ``batch_grad`` are ``gradient_fn`` and ``batch_gradient_fn``, bound once;
    ``grad`` may be None when q = 1 and ``batch_grad`` is not.
    With q exactly 0 or 1 no branch coin is consumed, so those settings
    share their random stream with the pure methods they reduce to.
    Minibatch gradients are evaluated as one vectorized batch on dense
    datasets (per-sample loop otherwise); either way the reduction order is
    fixed, so trajectories are reproducible per seed.
    """
    table = state.table
    n = table.n
    q = cfg.q
    if q >= 1.0:
        take_batch = True
    elif q <= 0.0:
        take_batch = False
    else:
        take_batch = rng.uniform() < q
    x = state.x
    # theta / n written as 1 / (q (tau-1) + 1): exact 1 at q = 0, 1/tau at q = 1
    scale = 1.0 / cfg.cost_per_iter
    inv_n = 1.0 / n
    if take_batch:
        idx = sample_subset(rng, n, cfg.tau)
        if batch_grad is not None:
            grads_rows = batch_grad(x, idx)
            diff = grads_rows.sum(axis=0) - table.J[:, idx].sum(axis=1)
            state.x = x - cfg.alpha * (scale * diff + inv_n * table.col_sum)
            table.write_columns(idx, grads_rows, diff)
        else:
            cols = idx.tolist()
            grads = [grad(x, j) for j in cols]
            diffs = [g - table.J[:, j] for j, g in zip(cols, grads)]
            diff = functools.reduce(np.add, diffs)  # summed in index order
            state.x = x - cfg.alpha * (scale * diff + inv_n * table.col_sum)
            for j, g, d in zip(cols, grads, diffs):
                table.write_column(j, g, d)
        state.grad_evals += cfg.tau
    else:
        j = rng.randint_below(n)
        g = grad(x, j)
        diff = g - table.J[:, j]
        state.x = x - cfg.alpha * (scale * diff + inv_n * table.col_sum)
        table.write_column(j, g, diff)
        state.grad_evals += 1
    state.iters += 1
    return state


def lyapunov(state, cfg, x_star, grad_table_star, l_max):
    """Distance measure that the iteration contracts geometrically:
    ||x - x*||^2 plus theta alpha / (2 n L_max) times the squared Frobenius
    distance of the table from the per-sample gradients at x*, with
    theta = n / (q (tau - 1) + 1) and alpha from ``cfg``."""
    dx = state.x - x_star
    dj = state.table.J - grad_table_star
    n = state.table.n
    coef = n / cfg.cost_per_iter * cfg.alpha / (2.0 * n * l_max)
    return float(dx @ dx) + coef * float(np.sum(dj * dj))


def run(data, loss, cfg, x_star, table, lyapunov_ref=None):
    """Run the iteration from x = 0 until the error reaches ``cfg.tol``, the
    pass budget is exhausted, or the run diverges: it stops at the first
    checkpoint whose error is not finite (a non-finite iterate always gives
    one), with ``diverged`` set and no numpy warning.

    The caller derives the inputs: the stepsize ``cfg.alpha``, the reference
    solution ``x_star`` (a vector of shape (d,)) that the error ||x - x*|| is
    measured against, and ``table``, which must be ``init_table(data, loss, 0)``;
    the run takes the table over, writes into it and counts its n evaluations.
    With ``lyapunov_ref = (init_table(data, loss, x_star).J, profile.L_max)``
    every checkpoint records :func:`lyapunov`, else None.
    Checkpoints land every round(check_every_passes * n / (q (tau - 1) + 1))
    iterations (a spacing that overflows to inf is refused), so runs that
    differ only by seed are sampled at identical iteration counts.
    Wall time is measured around the iteration loop only.
    """
    if np.shape(x_star) != (data.d,):
        raise InvalidInputError(f"x_star must have shape ({data.d},), got {np.shape(x_star)}")
    n = data.n
    shapes = (np.shape(table.J), np.shape(table.col_sum))
    if shapes != ((data.d, n), (data.d,)):
        raise InvalidInputError(f"table shapes {shapes} are not (({data.d}, {n}), ({data.d},))")
    ref_shape = None if lyapunov_ref is None else np.shape(lyapunov_ref[0])
    if ref_shape not in (None, (data.d, n)):
        raise InvalidInputError(f"reference table shape {ref_shape} is not ({data.d}, {n})")
    if loss.kind == "logistic":
        check_logistic_labels(data)
    if cfg.tau > n:  # SolverConfig checks q and tau >= 1
        raise InvalidInputError(f"need 1 <= tau <= n, got tau={cfg.tau}, n={n}")
    spacing = cfg.check_every_passes * n / cfg.cost_per_iter
    if not math.isfinite(spacing):
        raise InvalidInputError(f"checkpoint spacing of {spacing} iterations is not finite")
    check_every = max(1, round(spacing))

    rng = SeededRng(cfg.seed)
    state = SolverState(x=np.zeros(data.d), table=table, grad_evals=n)  # n: the table fill

    batch_grad = batch_gradient_fn(data, loss)
    # a q = 1 step with a batch kernel never takes a per-sample gradient
    grad = gradient_fn(data, loss) if cfg.q < 1.0 or batch_grad is None else None

    budget = cfg.max_effective_passes * n
    points = []

    def checkpoint(wall_seconds):
        err = float(np.linalg.norm(state.x - x_star))
        psi = None if lyapunov_ref is None else lyapunov(state, cfg, x_star, *lyapunov_ref)
        points.append(TrajectoryPoint(state.iters, state.grad_evals, wall_seconds, err, psi))
        return err

    # an overflowing iterate is caught by its non-finite error: numpy's warnings are noise
    with np.errstate(over="ignore", invalid="ignore"):
        err = checkpoint(0.0)
        start = time.perf_counter()
        while err > cfg.tol and math.isfinite(err) and state.grad_evals < budget:
            for _ in range(check_every):
                sagd_step(state, cfg, rng, grad, batch_grad)
                if state.grad_evals >= budget:
                    break
            err = checkpoint(time.perf_counter() - start)
    return RunResult(points=points, converged=err <= cfg.tol, x=state.x, seed=cfg.seed,
                     diverged=not math.isfinite(err))
