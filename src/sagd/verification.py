"""Self-check suites: closed forms against enumeration oracles, and the
shape properties of the complexity envelopes that the planner relies on.

Each suite returns a :class:`SuiteResult` listing every offending tuple, so
a failure pinpoints the (n, tau, q) combination that broke.  The ``*_fn``
parameters exist so tests can inject a perturbed implementation and assert
that the suite actually catches it; production callers leave them at None.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import complexity, planner, sketch_oracle
from .exceptions import EnumerationLimitError, InvalidInputError
from .numerics import SeededRng
from .problem import SmoothnessProfile

Q_GRID = tuple(i / 20 for i in range(21))
ORACLE_SEED = 20240801  # seeds the random smoothness vectors of the constants suite
COND_SCALES = (0.5, 2.0)  # 4 L_max / mu = cond * (n - 1) in the envelope suite


@dataclass
class SuiteResult:
    name: str
    passed: bool
    checks: int
    failures: list = field(default_factory=list)
    elapsed: float = 0.0

    def summary(self):
        status = "PASS" if self.passed else "FAIL"
        line = f"{status} {self.name}: {self.checks} checks in {self.elapsed:.2f}s"
        if self.failures:
            line += f", {len(self.failures)} failures"
        return line


def _residual(cfg):
    return complexity.sketch_residual(cfg)[0]


def check_constants_against_oracles(
    n_max=8,
    levels_per_pair=20,
    rho_fn=None,
    smoothness_fn=None,
    theta_fn=None,
):
    """Compare every closed-form sampling constant with its enumeration.

    Grid: n in {2..n_max}, tau in {1..n}, q over ``Q_GRID``.  Tolerances:
    bias correction and projector mean to 1e-12, sketch residual to
    1e-9 * max(1, oracle), expected smoothness to 1e-9 relative over
    ``levels_per_pair`` random smoothness vectors per (n, tau).  The closed
    forms are evaluated once per (n, tau) over the whole q grid.

    Each oracle quantity is enumerated once per distinct input: the
    smoothness max term once per (n, tau, level set), and the projector
    mean and the residual matrix once each per (n, tau, q), two
    sampling-law enumerations that also give the bias correction.  The
    values are bit-identical to the public ``sketch_oracle`` functions'.
    """
    if n_max < 2:
        raise InvalidInputError(f"need n_max >= 2, got {n_max}")
    if n_max > sketch_oracle.ENUMERATION_CAP:  # fail before enumerating the smaller n
        raise EnumerationLimitError(
            f"enumeration is capped at n <= {sketch_oracle.ENUMERATION_CAP}, got n = {n_max}"
        )
    rho_fn = rho_fn or _residual
    smoothness_fn = smoothness_fn or complexity.expected_smoothness
    theta_fn = theta_fn or complexity.theta
    rng = SeededRng(ORACLE_SEED)
    failures = []
    checks = 0
    start = time.perf_counter()
    for n in range(2, n_max + 1):
        for tau in range(1, n + 1):
            level_sets = [0.5 + rng.uniforms(n) for _ in range(levels_per_pair)]
            profiles = [SmoothnessProfile(lv, float(lv.max()), float(lv.mean()), 1e-3,
                                          "lambda-lower-bound") for lv in level_sets]
            cfg = complexity.InterpolationConfig(q=np.asarray(Q_GRID, float), tau=tau, n=n)
            th_all, rho_all = theta_fn(cfg), rho_fn(cfg)
            l1_all = [smoothness_fn(cfg, profile) for profile in profiles]
            max_terms = [sketch_oracle.oracle_smoothness_max_term(lv, tau) for lv in level_sets]
            for i, q in enumerate(Q_GRID):
                checks += 1
                mean = sketch_oracle.oracle_expected_projection(n, tau, q)
                th_oracle = sketch_oracle.bias_correction_of(np.diag(mean))
                if abs(th_all[i] - th_oracle) > 1e-12 * max(1.0, th_oracle):
                    failures.append(f"theta(n={n},tau={tau},q={q:.2f})")
                expected = np.eye(n) / th_oracle
                if np.max(np.abs(mean - expected)) > 1e-12:
                    failures.append(f"projector-mean(n={n},tau={tau},q={q:.2f})")
                rho_oracle = sketch_oracle.oracle_sketch_residual(n, tau, q)
                if abs(rho_all[i] - rho_oracle) > 1e-9 * max(1.0, rho_oracle):
                    failures.append(f"residual(n={n},tau={tau},q={q:.2f})")
                for k, (profile, l1, max_term) in enumerate(zip(profiles, l1_all, max_terms)):
                    l1_oracle = sketch_oracle.assemble_expected_smoothness(
                        n, tau, q, th_oracle, max_term, profile.L_max
                    )
                    if abs(l1[i] - l1_oracle) > 1e-9 * max(1.0, abs(l1_oracle)):
                        failures.append(f"smoothness(n={n},tau={tau},q={q:.2f},levels={k})")
    return SuiteResult(
        name="constants-vs-oracles",
        passed=not failures,
        checks=checks,
        failures=failures,
        elapsed=time.perf_counter() - start,
    )


def _envelopes(n, tau, profile, rho_fn):
    """Both complexity envelope values at every grid q, as arrays."""
    qs = np.arange(0.0, 1.0 + 1e-12, 1e-3)
    qs[-1] = 1.0
    cfg = complexity.InterpolationConfig(q=qs, tau=tau, n=n)
    g_smooth = complexity.total_complexity(cfg, profile).smoothness_term
    return qs, g_smooth, complexity.residual_term(cfg, profile, rho_fn(cfg))


def check_envelope_shapes(
    n_values=(10, 100, 1000),
    taus_per_n=12,
    rho_fn=None,
):
    """Shape properties of the complexity envelopes on dense q grids.

    For each n and condition scale in ``COND_SCALES``:
    the smoothness envelope is nondecreasing in q; the residual envelope is
    nonincreasing outside the branch window [q-, q+] and concave strictly
    inside it; the branch roots solve their defining equation to 1e-9
    relative; each intersection candidate equates the envelopes to 1e-6
    relative; and q-/q+ obey the closed-form bound chain for tau >= 4.
    Slacks are relative to the local envelope magnitude.
    """
    rho_fn = rho_fn or _residual
    failures = []
    checks = 0
    start = time.perf_counter()
    for n in n_values:
        taus = sorted(
            {4, 5, 6, 8}
            | {min(n, max(4, round(n ** (k / (taus_per_n - 1.0)))) ) for k in range(taus_per_n)}
            | {n}
        )
        taus = [t for t in taus if 4 <= t <= n]
        for cond_scale in COND_SCALES:
            l_max = 1.0
            mu = 4.0 * l_max / (cond_scale * (n - 1))
            profile = SmoothnessProfile.uniform(n, l_max, mu)
            for tau in taus:
                checks += 1
                q_minus, q_plus = planner.branch_roots(tau, n)
                if math.isnan(q_minus):
                    failures.append(f"missing-roots(n={n},tau={tau})")
                    continue
                threshold = (n / tau) * ((n - 1) / (tau - 1))
                for root in (q_minus, q_plus):
                    th = n / (root * (tau - 1) + 1.0)
                    if abs(root * th * th - threshold) > 1e-9 * threshold:
                        failures.append(f"root-residual(n={n},tau={tau},q={root:.4f})")
                low = 1.0 / (n - 1) ** 2
                cap = (n + 1 - 2 * math.sqrt(n)) / (3 * (n - 1))
                cap_plus = (n + 1 + 2 * math.sqrt(n)) / (3 * (n - 1))
                chain = (
                    low <= q_minus + 1e-9
                    and q_minus <= cap + 1e-9
                    and cap <= 1.0 / 3.0 + 1e-9
                    and 1.0 / 3.0 <= cap_plus + 1e-9
                    and cap_plus <= q_plus + 1e-9
                    and q_plus <= 1.0 + 1e-9
                )
                if not chain:
                    failures.append(f"root-bounds(n={n},tau={tau})")

                qs, g_smooth, g_resid = _envelopes(n, tau, profile, rho_fn)
                scale = max(1.0, float(np.max(np.abs(g_resid))))
                d_smooth = np.diff(g_smooth)
                if np.min(d_smooth) < -1e-9 * max(1.0, float(np.max(np.abs(g_smooth)))):
                    failures.append(f"smoothness-envelope-decreasing(n={n},tau={tau})")
                outside = (qs[1:] <= q_minus) | (qs[:-1] >= q_plus)
                d_resid = np.diff(g_resid)
                if np.any(d_resid[outside] > 1e-9 * scale):
                    failures.append(f"residual-envelope-increasing(n={n},tau={tau})")
                # strict interior: the residual has a derivative kink exactly
                # at the branch roots, so skip one grid step at each end
                h = qs[1] - qs[0]
                inner = (qs[1:-1] > q_minus + h) & (qs[1:-1] < q_plus - h)
                second = g_resid[2:] - 2.0 * g_resid[1:-1] + g_resid[:-2]
                if np.any(second[inner] > 1e-9 * scale):
                    failures.append(f"residual-envelope-not-concave(n={n},tau={tau})")
            # intersection candidates across the whole tau range
            hit_taus = np.arange(2, n + 1, max(1, (n - 2) // 40 or 1))
            _, hit_q = planner.q_intersections(hit_taus, n, l_max, mu)
            found = ~np.isnan(hit_q)
            hit_taus, hit_q = hit_taus[found], hit_q[found]
            checks += hit_q.size
            mc = complexity.total_complexity(
                complexity.InterpolationConfig(q=hit_q, tau=hit_taus, n=n), profile
            )
            gap = np.abs(mc.smoothness_term - mc.residual_term)
            wide = gap > 1e-6 * np.maximum(mc.smoothness_term, mc.residual_term)
            for tau, q in zip(hit_taus[wide].tolist(), hit_q[wide].tolist()):
                failures.append(f"intersection-gap(n={n},tau={tau},q={q:.4f})")
    return SuiteResult(
        name="envelope-shapes",
        passed=not failures,
        checks=checks,
        failures=failures,
        elapsed=time.perf_counter() - start,
    )


def run_all(n_max=8):
    """Run every suite at its default grid."""
    return [
        check_constants_against_oracles(n_max=n_max),
        check_envelope_shapes(),
    ]
