"""Closed-form complexity calculus for the SAGA/minibatch-SAGA interpolation.

Every quantity here is a function of the sampling law alone (probability q
of taking a tau-minibatch step instead of a single-sample step) and of the
smoothness profile (n, L_max, L_bar, mu).  The enumeration oracles in
:mod:`sagd.sketch_oracle` recompute the sampling-dependent quantities by
brute force; the two routes are compared in the verification suites.

Every function broadcasts over numpy ``q``, ``tau`` and ``n`` and evaluates
elementwise, in the same operation order as a scalar call, so an array call
equals the scalar calls bit for bit.  Scalar arguments give Python floats
back.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInputError

REGIME_WELL = "well"
REGIME_BAD = "bad"


@dataclass(frozen=True)
class InterpolationConfig:
    """Sampling law: minibatches of size tau with probability q, single
    uniformly chosen samples otherwise, over n samples.  Each field is a
    number or a numpy array; arrays broadcast against each other."""

    q: float
    tau: int
    n: int

    def __post_init__(self):
        n, tau, q = np.broadcast_arrays(*_fields(self))
        bad = ~((1 <= n) & (n < np.inf)) | (np.floor(n) != n)  # NaN is bad too
        if bad.any():  # messages name the first offending entry
            raise InvalidInputError(f"need an integral n >= 1, got n={n[bad][0]}")
        bad = ~((0.0 <= q) & (q <= 1.0))
        if bad.any():
            raise InvalidInputError(f"q must be in [0, 1], got {q[bad][0]}")
        bad = ~((1 <= tau) & (tau <= n)) | (np.floor(tau) != tau)
        if bad.any():
            raise InvalidInputError(f"need 1 <= tau <= n, got tau={tau[bad][0]}, n={n[bad][0]}")

    @property
    def cost_per_iter(self):
        """Expected gradient evaluations per step: q (tau - 1) + 1."""
        return self.q * (self.tau - 1) + 1.0


def _fields(cfg):
    return np.asarray(cfg.n), np.asarray(cfg.tau), np.asarray(cfg.q, dtype=np.float64)


def _scalar(x):
    """A Python scalar for a 0-d result, the array otherwise."""
    return x.item() if np.ndim(x) == 0 else x


@dataclass(frozen=True)
class MethodConstants:
    """The stepsize and complexity of one (q, tau).  The constants they are
    built from are the functions below: :func:`theta`,
    :func:`expected_smoothness`, :func:`sketch_residual` and the config's
    ``cost_per_iter``."""

    stepsize: float
    smoothness_term: float  # complexity branch driven by expected smoothness
    residual_term: float    # complexity branch driven by the sketch residual
    omega_coef: float       # max of the two branches; total cost / log(1/eps)


def theta(cfg):
    """Bias-correction factor making the gradient estimator unbiased."""
    return cfg.n / cfg.cost_per_iter


def expected_smoothness(cfg, profile):
    """Smoothness constant bounding the estimator's second moment.

    Equals L_max exactly in the single-sample limits (q = 0 or tau = 1) and
    interpolates toward the full-gradient value as q tau grows.
    """
    n, tau, q = _fields(cfg)
    cost = q * (tau - 1) + 1.0
    with np.errstate(divide="ignore", invalid="ignore"):  # n = 1 is masked below
        lead = (q * (tau * (n - tau) / (n - 1) - 1.0) + 1.0) * profile.L_max
        mix = n * q * tau * (tau - 1) / (n - 1) * profile.L_bar
        l1 = (lead + mix) / (cost * cost)
    return _scalar(np.where(n == 1, profile.L_max, l1))


def sketch_residual(cfg):
    """Excess variance rho of the bias-corrected sampling.

    The residual is the largest eigenvalue of a two-eigenvalue circulant
    matrix; which eigenvalue wins flips where q theta^2 crosses
    (n / tau)((n - 1) / (tau - 1)).  Below the crossing the low expression
    applies, above it the high one.  For tau = 1 the threshold is infinite
    and the low expression always applies; within a 1e-12 relative band of
    the crossing, where both agree, the low one is taken.  n = 1 gives 0.
    """
    n, tau, q = _fields(cfg)
    with np.errstate(divide="ignore", invalid="ignore"):  # n = 1, tau = 1 are masked below
        th = n / (q * (tau - 1) + 1.0)
        low = th * th * ((1.0 - q) / n + q * (tau / n) * ((n - tau) / (n - 1)))
        high = low + n * (th * th * q * (tau / n) * ((tau - 1) / (n - 1)) - 1.0)
        t = q * th * th
        threshold = (n / tau) * ((n - 1) / (tau - 1))
        band = np.abs(t - threshold) <= 1e-12 * np.maximum(1.0, threshold)
    above = (tau != 1) & ~band & ~(t < threshold)
    return _scalar(np.where(n == 1, 0.0, np.where(above, high, low)))


def stepsize(cfg, profile):
    """Largest stepsize covered by the convergence guarantee."""
    return total_complexity(cfg, profile).stepsize


def total_complexity(cfg, profile):
    """The stepsize, both complexity envelopes and the complexity coefficient
    omega_coef = expected gradient evaluations / log(1/eps) for one (q, tau)."""
    n = cfg.n
    mu = profile.mu
    l_max = profile.L_max
    cost = cfg.cost_per_iter
    th = theta(cfg)
    l1 = expected_smoothness(cfg, profile)
    rho = sketch_residual(cfg)
    g_smooth = (4.0 * l1 / mu) * cost
    g_resid = (th + 4.0 * rho * l_max / (mu * n)) * cost
    with np.errstate(divide="ignore", over="ignore"):  # l1 = 0 (L_bar = 0) gives inf
        alpha = np.minimum(np.divide(1.0, 4.0 * l1), n / (4.0 * l_max * rho + mu * th * n))
    return MethodConstants(
        stepsize=_scalar(alpha),
        smoothness_term=g_smooth,
        residual_term=g_resid,
        omega_coef=_scalar(np.maximum(g_smooth, g_resid)),
    )


@dataclass(frozen=True)
class FullBatchInterpolation:
    """Closed-form (q, stepsize, complexity) for the tau = n special case,
    where the minibatch step is a full gradient step."""

    q: float
    alpha: float
    omega_coef: float
    regime: str


def full_batch_interpolation(profile):
    """Closed-form interpolation parameters for tau = n, ``profile``'s n.

    Two conditioning regimes, split at 4 L_bar / mu = n - 1.  Well
    conditioned picks q = 1/(n-1)^2; badly conditioned picks
    q = mu / (4 n L_bar).  Both choices give a strictly better complexity
    coefficient than the single-sample baseline n + 4 L_max / mu.
    """
    n = profile.n
    if n <= 2:
        raise InvalidInputError("closed forms need n >= 3")
    mu = profile.mu
    l_max = profile.L_max
    l_bar = profile.L_bar
    cond = 4.0 * l_bar / mu
    if cond <= n - 1:
        q = 1.0 / (n - 1) ** 2
        alpha = 1.0 / (4.0 * (1.0 - 2.0 / n) * l_max + mu * (n - 1))
        omega = n + (n - 2) / (n - 1) * (4.0 * l_max / mu)
        return FullBatchInterpolation(q, alpha, omega, REGIME_WELL)
    q = mu / (4.0 * n * l_bar)
    inner = n * (4.0 * l_bar + mu) - mu
    alpha = inner * inner / (
        4.0 * n * l_bar * (mu * n * inner + 4.0 * l_max * (4.0 * n * l_bar - mu))
    )
    omega = n + (4.0 * l_max / mu) * (1.0 - 1.0 / (cond + 1.0 - 1.0 / n))
    return FullBatchInterpolation(q, alpha, omega, REGIME_BAD)
