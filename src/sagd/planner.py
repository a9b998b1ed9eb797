"""Search for the (q, tau) pair with the smallest total complexity.

The complexity surface, evaluated with the uniform estimate L_i = L_max, is
the max of two envelopes in q: one monotonically increasing (driven by
expected smoothness), one decreasing-concave-decreasing (driven by the
sketch residual).  Its minimizer over q for a fixed tau therefore lies at
q = 1, at the lower branch-crossing root of the residual, or where the two
envelopes intersect.  One builder, :func:`_pairs`, gives those candidates
of any tau, and one function, :func:`_rank`, with one tie rule, ranks any
slate: plan_q, plan_tau and optimal_plan all pick through it.
"""

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .complexity import InterpolationConfig, _scalar, stepsize, total_complexity
from .exceptions import InvalidInputError

KIND_ONE = "ONE"
KIND_Q_MINUS = "Q_MINUS"
KIND_Q_I1 = "Q_I1"
KIND_Q_I2 = "Q_I2"
KIND_SAGA_BASELINE = "SAGA_BASELINE"


@dataclass(frozen=True)
class PlanCandidate:
    """One (q, tau) candidate with its complexity coefficient and stepsize.

    ``covered`` is False only for branch-root candidates at tau in {2, 3},
    where the root exists but the monotonicity bounds backing the candidate
    family are only established for tau >= 4.
    """

    tau: int
    q_kind: str
    q: float
    omega_coef: float
    alpha: float
    covered: bool


@dataclass
class Plan:
    """Planner output: the chosen candidate, the whole slate, and the
    single-sample baseline's omega.

    ``all_candidates`` is a numpy record array with :class:`PlanCandidate`'s
    fields, one row per candidate; ``best`` is that winning row as a
    PlanCandidate of Python scalars.  The profile the plan was made from
    stays with the caller.
    """

    best: PlanCandidate
    all_candidates: np.recarray
    saga_omega: float


def _check_taus(tau, n, lo):
    """``tau`` as an array after checking every entry is in [lo, n]; the
    message names the first one that is not."""
    tau = np.asarray(tau)
    bad = ~((lo <= tau) & (tau <= n))  # NaN is bad too
    if bad.any():
        raise InvalidInputError(f"need {lo} <= tau <= n, got tau={tau[bad][0]}, n={n}")
    return tau


def branch_roots(tau, n):
    """The two q values where the sketch residual switches branch, i.e. the
    roots of q theta(q)^2 = (n / tau)((n - 1) / (tau - 1)).

    Returns ``(q_minus, q_plus)``, both NaN where tau = 1 (no crossing) or
    the discriminant n tau + 4 (1 - n) is negative (roots are complex).
    """
    if n < 2:
        raise InvalidInputError("need n >= 2")
    tau = _check_taus(tau, n, 1)
    disc = n * tau + 4.0 * (1.0 - n)
    with np.errstate(divide="ignore", invalid="ignore"):  # absent roots turn NaN
        root = np.where((tau == 1) | (disc < 0.0), np.nan, np.sqrt(n * tau) * np.sqrt(disc))
        den = 2.0 * (n - 1) * (tau - 1)
        base = n * tau + 2.0 * (1.0 - n)
        return _scalar((base - root) / den), _scalar((base + root) / den)


def tau_window(n, l_max, mu):
    """Validity window endpoints for the envelope intersection points.

    ``tau_min`` is where the low-branch intersection hits q = 1; above
    ``tau_max`` the intersection moves to the high branch.  Both are real
    valued.  When n <= 4 L_max / mu the high-branch window is empty and
    tau_max = n (including the n = 4 L_max / mu boundary, by continuity).
    """
    if mu <= 0.0 or l_max < mu:
        raise InvalidInputError("need mu > 0 and L_max >= mu")
    cond = 4.0 * l_max / mu
    tau_min = n / cond + 1.0 - mu / (4.0 * l_max)
    if n > cond:
        tau_max = min(n * (n - 1) * mu / ((n - cond) * 4.0 * l_max), float(n))
    else:
        tau_max = float(n)
    return tau_min, tau_max


def q_intersections(tau, n, l_max, mu):
    """Intersection of the two complexity envelopes at tau in [2, n].

    Returns ``(kind, q)`` with kind "Q_I1" for tau in [tau_min, tau_max]
    (low-branch residual) or "Q_I2" elsewhere (high branch); q is NaN
    outside both windows, when the defining denominator vanishes, or when
    the value is not a probability.
    """
    tau = _check_taus(tau, n, 2)
    tau_min, tau_max = tau_window(n, l_max, mu)
    cond = 4.0 * l_max / mu
    low = (tau_min <= tau) & (tau <= tau_max)
    high = ~low & (tau_max < tau) & (tau <= n)
    den = (tau - 1) * (tau * cond + 1.0 - n)
    with np.errstate(divide="ignore"):  # den = 0 is masked below
        q_low = np.where(den == 0.0, np.nan, (n - 1) / den)
    q = np.where(low, q_low, np.where(high, (n - cond) / (cond * (tau - 1)), np.nan))
    q = np.where((0.0 <= q) & (q <= 1.0), q, np.nan)
    return _scalar(np.where(low, KIND_Q_I1, KIND_Q_I2)), _scalar(q)


def optimal_minibatch_tau(n, mu, l_max):
    """Best minibatch size for the pure-minibatch method (q = 1):
    round(1 + mu (n - 1) / (4 L_max)), half away from zero, clamped to [1, n]."""
    if mu <= 0.0:
        raise InvalidInputError("need mu > 0")
    t = 1.0 + mu * (n - 1) / (4.0 * l_max)
    return min(max(int(math.floor(t + 0.5)), 1), n)


def _ranking_profile(profile):
    """The profile (q, tau) pairs are ranked on: the uniform estimate L_i = L_max."""
    return replace(profile, L_bar=profile.L_max)


def _pairs(profile, taus):
    """``(tau, kind, q)`` of the closed-form pairs of each tau >= 2 in ``taus``:
    its lower branch root, then its envelope intersection, if in [0, 1]."""
    q_minus, _ = branch_roots(taus, profile.n)
    hit_kind, hit_q = q_intersections(taus, profile.n, profile.L_max, profile.mu)
    q = np.column_stack((q_minus, hit_q)).ravel()
    kind = np.column_stack((np.full(np.size(taus), KIND_Q_MINUS), hit_kind)).ravel()
    keep = (0.0 <= q) & (q <= 1.0)  # False for NaN
    return np.repeat(taus, 2)[keep], kind[keep], q[keep]


def _rank(profile, tau, q):
    """Omega of each (tau, q) pair, ``tau`` broadcast against ``q``, on the
    ranking profile, and the index of the cheapest pair: ties go to the
    larger tau (more parallelizable), then to the smaller q."""
    tau, q = np.broadcast_arrays(tau, q)
    cfg = InterpolationConfig(q, tau, profile.n)
    omega = total_complexity(cfg, _ranking_profile(profile)).omega_coef
    return omega, np.lexsort((q, -tau, omega))[0]


def plan_q(profile, tau):
    """The best q at a fixed tau by :func:`_rank` over q = 0, 1 and the pairs
    of tau (q = 0 alone at tau = 1).  Returns ``(q, omega_coef)``."""
    q = np.concatenate(([0.0, 1.0], _pairs(profile, [tau])[2])) if tau > 1 else np.zeros(1)
    omega, best = _rank(profile, tau, q)
    return q[best].item(), omega[best].item()


def plan_tau(profile, q):
    """The best tau at a fixed q, ranked by :func:`_rank` over tau =
    1..profile.n.  Returns ``(tau, omega_coef)``, tau a Python int."""
    tau = np.arange(1, profile.n + 1)
    omega, best = _rank(profile, tau, q)
    return int(tau[best]), omega[best].item()


def optimal_plan(profile):
    """Enumerate the candidate (q, tau) slate and return the cheapest.

    The slate, in order: the single-sample baseline, the q = 1 family, then
    the :func:`_pairs` of tau = 2..n.  :func:`_rank` ranks it; each stepsize
    uses the true profile, so an executed plan is always covered by the
    convergence guarantee.
    """
    n = profile.n
    if n < 2:
        raise InvalidInputError("planning needs n >= 2")
    pair_tau, pair_kind, pair_q = _pairs(profile, np.arange(2, n + 1))

    # q = 1 family: the rounded closed-form tau plus the exhaustive scan's
    # argmin (they can differ by one when rounding picks the worse neighbor)
    t_scan, _ = plan_tau(profile, 1.0)
    t_round = optimal_minibatch_tau(n, profile.mu, profile.L_max)
    ones = [t_round] if t_scan == t_round else [t_round, t_scan]

    tau = np.concatenate(([1], ones, pair_tau))
    q = np.concatenate(([0.0], [1.0] * len(ones), pair_q))
    kind = np.concatenate(([KIND_SAGA_BASELINE], [KIND_ONE] * len(ones), pair_kind))
    covered = (kind != KIND_Q_MINUS) | (tau >= 4)
    omega, best = _rank(profile, tau, q)
    alpha = stepsize(InterpolationConfig(q, tau, n), profile)
    names = [f.name for f in fields(PlanCandidate)]
    slate = np.rec.fromarrays((tau, kind, q, omega, alpha, covered), names=names)
    return Plan(PlanCandidate(*slate[best].item()), slate, saga_omega=omega[0].item())
