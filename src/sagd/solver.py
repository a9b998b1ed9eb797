"""The interpolated variance-reduced iteration with its gradient table.

Each step flips a q-coin: with probability q it takes a tau-minibatch
table-corrected step, otherwise a single-sample one.  Both branches share
the bias correction theta = n / (q (tau - 1) + 1), so the update direction
is an unbiased estimate of the full gradient whatever the table holds.
With q = 0 the iteration is exactly the classical single-sample method;
with q = 1 and tau = n it is exactly full gradient descent.
"""

import time
from dataclasses import dataclass

import numpy as np

from .complexity import InterpolationConfig, stepsize as theoretical_stepsize
from .exceptions import InvalidInputError
from .numerics import SeededRng, sample_subset
from .problem import (  # noqa: F401  full_grad: perfbench/tracer.py spans it by this name
    check_logistic_labels,
    batch_gradient_fn,
    full_grad,
    gradient_fn,
    gradient_sum,
    gradient_sum_fn,
    smoothness_profile,
)

TABLE_POLICIES = ("at-x0", "zeros", "random")


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

    def write_column(self, j, g):
        self.col_sum += g - self.J[:, j]
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
    q: float
    tau: int
    alpha: float = None  # None resolves to the theoretical stepsize
    table_init: str = "at-x0"
    seed: int = 0
    tol: float = 1e-10
    max_effective_passes: float = 100.0
    check_every_passes: float = 0.25
    track_lyapunov: bool = False

    def __post_init__(self):
        if not 0.0 <= self.q <= 1.0:
            raise InvalidInputError(f"q must be in [0, 1], got {self.q}")
        if self.tau < 1:
            raise InvalidInputError("tau must be >= 1")
        if self.table_init not in TABLE_POLICIES:
            raise InvalidInputError(f"unknown table_init {self.table_init!r}")
        if not (np.isfinite(self.tol) and self.tol > 0.0):
            raise InvalidInputError(f"tol must be finite and positive, got {self.tol}")
        if self.alpha is not None and not self.alpha > 0.0:
            raise InvalidInputError("alpha must be positive")
        if not (np.isfinite(self.max_effective_passes) and self.max_effective_passes > 0.0):
            raise InvalidInputError("max_effective_passes must be finite and positive")
        if not (np.isfinite(self.check_every_passes) and self.check_every_passes > 0.0):
            raise InvalidInputError("check_every_passes must be finite and positive")


@dataclass
class TrajectoryPoint:
    iter: int
    grad_evals: int
    wall_seconds: float
    error: float
    lyapunov: float = None


@dataclass
class SolverState:
    """Mutable iteration state; owned by a single run."""

    x: np.ndarray
    table: GradientTable
    theta: float
    alpha: float
    iters: int = 0
    grad_evals: int = 0


@dataclass
class RunResult:
    points: list
    converged: bool
    x: np.ndarray
    seed: int
    extra_grad_evals: int = 0  # convergence-check full gradients, kept out of grad_evals

    def passes_to_tol(self, tol, n):
        """Effective passes at the first checkpoint with error <= tol."""
        for p in self.points:
            if p.error <= tol:
                return p.grad_evals / n
        return None


def init_table(data, loss, x0, policy, rng):
    """Build the gradient table.

    "at-x0" fills column j with the gradient of sample j at x0 (n gradient
    evaluations, which the caller accounts for); "zeros" starts empty;
    "random" fills the table with standard normal draws, column by column.
    """
    d, n = data.d, data.n
    if policy == "zeros":
        return GradientTable(J=np.zeros((d, n)), col_sum=np.zeros(d))
    if policy == "at-x0":
        j_mat = np.empty((d, n))
        return GradientTable(J=j_mat, col_sum=gradient_sum(data, loss, x0, out=j_mat))
    if policy == "random":
        j_mat = np.empty((d, n))
        for j in range(n):
            for k in range(d):
                j_mat[k, j] = rng.normal()
        return GradientTable(J=j_mat, col_sum=j_mat.sum(axis=1))
    raise InvalidInputError(f"unknown table policy {policy!r}")


def sagd_step(state, data, loss, cfg, rng, grad=None, batch_grad=None):
    """Advance the iterate by one step, updating the table in place.

    With q exactly 0 or 1 no branch coin is consumed, so those settings
    share their random stream with the pure methods they reduce to.
    Minibatch gradients are evaluated as one vectorized batch on dense
    datasets (per-sample loop otherwise); either way the reduction order is
    fixed, so trajectories are reproducible per seed.
    """
    if grad is None:
        grad = gradient_fn(data, loss)
        batch_grad = batch_gradient_fn(data, loss)
    n = data.n
    q = cfg.q
    if q >= 1.0:
        take_batch = True
    elif q <= 0.0:
        take_batch = False
    else:
        take_batch = rng.uniform() < q
    table = state.table
    x = state.x
    # theta / n written as 1 / (q (tau-1) + 1): exact 1 at q = 0, 1/tau at q = 1
    scale = 1.0 / (q * (cfg.tau - 1) + 1.0)
    inv_n = 1.0 / n
    if take_batch:
        idx = sample_subset(rng, n, cfg.tau)
        if batch_grad is not None:
            grads_rows = batch_grad(x, idx)
            diff = grads_rows.sum(axis=0) - table.J[:, idx].sum(axis=1)
            state.x = x - state.alpha * (scale * diff + inv_n * table.col_sum)
            table.write_columns(idx, grads_rows, diff)
        else:
            grads = [grad(x, j) for j in idx.tolist()]
            diff = grads[0] - table.J[:, idx[0]]
            for pos in range(1, len(grads)):
                diff += grads[pos] - table.J[:, idx[pos]]
            state.x = x - state.alpha * (scale * diff + inv_n * table.col_sum)
            for j, g in zip(idx.tolist(), grads):
                table.write_column(j, g)
        state.grad_evals += cfg.tau
    else:
        j = rng.randint_below(n)
        g = grad(x, j)
        state.x = x - state.alpha * (scale * (g - table.J[:, j]) + inv_n * table.col_sum)
        table.write_column(j, g)
        state.grad_evals += 1
    state.iters += 1
    return state


def lyapunov(state, x_star, grad_table_star, l_max):
    """Distance measure that the iteration contracts geometrically:
    ||x - x*||^2 plus theta alpha / (2 n L_max) times the squared Frobenius
    distance of the table from the per-sample gradients at x*."""
    dx = state.x - x_star
    dj = state.table.J - grad_table_star
    coef = state.theta * state.alpha / (2.0 * state.table.n * l_max)
    return float(dx @ dx) + coef * float(np.sum(dj * dj))


def gradient_matrix(data, loss, x):
    """Per-sample gradients at x, one column each (d x n)."""
    return init_table(data, loss, x, "at-x0", None).J


def run(data, loss, cfg, x_star=None, x0=None):
    """Run the iteration until the error reaches ``cfg.tol`` or the pass
    budget is exhausted.

    Error is ||x - x*|| when ``x_star`` is given, otherwise the full
    gradient norm (those evaluations are tracked separately and never enter
    grad_evals).  Checkpoints land every
    round(check_every_passes * n / (q (tau - 1) + 1)) iterations, so runs
    that differ only by seed are sampled at identical iteration counts.
    Wall time is measured around the iteration loop only.
    """
    n, d = data.n, data.d
    if cfg.tau > n:
        raise InvalidInputError(f"tau = {cfg.tau} exceeds n = {n}")
    if loss.kind == "logistic":
        check_logistic_labels(data)
    icfg = InterpolationConfig(q=cfg.q, tau=cfg.tau, n=n)
    profile = None
    if cfg.alpha is None or cfg.track_lyapunov:
        profile = smoothness_profile(data, loss)
    alpha = cfg.alpha if cfg.alpha is not None else theoretical_stepsize(icfg, profile)
    if not (np.isfinite(alpha) and alpha > 0.0):
        raise InvalidInputError(f"resolved stepsize {alpha} is not positive")

    rng = SeededRng(cfg.seed)
    x0 = np.zeros(d) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    if x0.shape != (d,):
        raise InvalidInputError(f"x0 has shape {x0.shape}, expected ({d},)")
    table = init_table(data, loss, x0, cfg.table_init, rng)
    state = SolverState(
        x=x0.copy(),
        table=table,
        theta=n / icfg.cost_per_iter,
        alpha=alpha,
        grad_evals=n if cfg.table_init == "at-x0" else 0,
    )

    grad_star = None
    if cfg.track_lyapunov:
        if x_star is None:
            raise InvalidInputError("track_lyapunov needs x_star")
        grad_star = gradient_matrix(data, loss, x_star)

    grad = gradient_fn(data, loss)
    batch_grad = batch_gradient_fn(data, loss)
    gsum = gradient_sum_fn(data, loss) if x_star is None else None
    extra = 0

    def measure():
        nonlocal extra
        if x_star is not None:
            return float(np.linalg.norm(state.x - x_star))
        extra += n
        return float(np.linalg.norm(gsum(state.x) / n))  # full_grad's bits

    def psi():
        if grad_star is None:
            return None
        return lyapunov(state, x_star, grad_star, profile.L_max)

    check_every = max(1, round(cfg.check_every_passes * n / icfg.cost_per_iter))
    budget = cfg.max_effective_passes * n
    err = measure()
    points = [TrajectoryPoint(0, state.grad_evals, 0.0, err, psi())]
    converged = err <= cfg.tol
    start = time.perf_counter()
    while not converged and state.grad_evals < budget:
        for _ in range(check_every):
            sagd_step(state, data, loss, cfg, rng, grad, batch_grad)
            if state.grad_evals >= budget:
                break
        err = measure()
        points.append(
            TrajectoryPoint(
                state.iters, state.grad_evals, time.perf_counter() - start, err, psi()
            )
        )
        converged = err <= cfg.tol
    return RunResult(
        points=points, converged=converged, x=state.x, seed=cfg.seed, extra_grad_evals=extra
    )
