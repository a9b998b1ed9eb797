"""Self-check suites: closed forms against enumeration oracles, and the
shape properties of the complexity envelopes that the planner relies on.

Each suite returns a :class:`SuiteResult` listing every offending tuple, so
a failure pinpoints the (n, tau, q) combination that broke.  Both suites
compute on whole grids and only then list the failures: the constants
suite makes one array-valued pass over the q grid per (n, tau), enumerating
the sampling law once, and the envelope suite evaluates each (n, condition
scale) once on its ``(taus, q)`` grid.  The ``*_fn``
parameters exist so tests can inject a perturbed implementation and assert
that the suite actually catches it; production callers leave them at None.
"""

import math
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

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


def check_constants_against_oracles(
    n_max=8,
    levels_per_pair=20,
    rho_fn=None,
    smoothness_fn=None,
    theta_fn=None,
):
    """Compare every closed-form sampling constant with its enumeration.

    Grid: n in {2..n_max}, tau in {1..n}, q over ``Q_GRID``.  Tolerances:
    bias correction and projector mean (against I / theta, with the closed
    form's theta) to 1e-12, sketch residual to 1e-9 * max(1, oracle),
    expected smoothness to 1e-9 relative over ``levels_per_pair`` random
    smoothness vectors per (n, tau).

    Each (n, tau) is one pass over its whole q grid.  The closed forms are
    evaluated once over ``Q_GRID``; ``smoothness_fn(cfg, stack)`` gets a
    profile stand-in whose ``L_max`` and ``L_bar`` are ``(K, 1)`` columns,
    so it gives one row per level set.  The oracles enumerate the pair's
    atoms once: the projector mean (which gives the bias correction) and
    the residual matrix for every q at once, and the max terms of the K
    level sets, drawn by one ``rng.uniforms`` call, as one stack.  The
    values are bit-identical to the scalar public ``sketch_oracle``
    functions', and failures are listed per q, then in the order theta,
    projector mean, residual, smoothness per level set.
    """
    if n_max < 2:
        raise InvalidInputError(f"need n_max >= 2, got {n_max}")
    if n_max > sketch_oracle.ENUMERATION_CAP:  # fail before enumerating the smaller n
        raise EnumerationLimitError(
            f"enumeration is capped at n <= {sketch_oracle.ENUMERATION_CAP}, got n = {n_max}"
        )
    rho_fn = rho_fn or complexity.sketch_residual
    smoothness_fn = smoothness_fn or complexity.expected_smoothness
    theta_fn = theta_fn or complexity.theta
    rng = SeededRng(ORACLE_SEED)
    qs = np.asarray(Q_GRID, float)
    failures = []
    checks = 0
    start = time.perf_counter()
    for n in range(2, n_max + 1):
        for tau in range(1, n + 1):
            levels = 0.5 + rng.uniforms(levels_per_pair * n).reshape(levels_per_pair, n)
            # the (K, 1) columns broadcast against q: one closed-form row per level set
            stack = SimpleNamespace(L_max=levels.max(axis=1)[:, None],
                                    L_bar=levels.mean(axis=1)[:, None])
            cfg = complexity.InterpolationConfig(q=qs, tau=tau, n=n)
            th_all, rho_all, l1_all = theta_fn(cfg), rho_fn(cfg), smoothness_fn(cfg, stack)
            mean = sketch_oracle.oracle_expected_projection(n, tau, qs)
            th_oracle = sketch_oracle.bias_correction_of(np.diagonal(mean, 0, -2, -1))
            rho_oracle = sketch_oracle.oracle_sketch_residual(n, tau, qs)
            l1_oracle = sketch_oracle.assemble_expected_smoothness(
                n, tau, qs, th_oracle,
                sketch_oracle.oracle_smoothness_max_term(levels, tau)[:, None], stack.L_max,
            )
            expected = np.eye(n) / th_all[:, None, None]  # unbiasedness
            # one row per q: theta, projector mean, residual, then each level set
            bad = np.column_stack([
                np.abs(th_all - th_oracle) > 1e-12 * np.fmax(1.0, th_oracle),
                np.max(np.abs(mean - expected), axis=(1, 2)) > 1e-12,
                np.abs(rho_all - rho_oracle) > 1e-9 * np.fmax(1.0, rho_oracle),
                (np.abs(l1_all - l1_oracle) > 1e-9 * np.fmax(1.0, np.abs(l1_oracle))).T,
            ])
            checks += len(Q_GRID)
            for i, j in zip(*np.nonzero(bad)):
                at = f"n={n},tau={tau},q={Q_GRID[i]:.2f}"
                if j < 3:
                    failures.append(f"{('theta', 'projector-mean', 'residual')[j]}({at})")
                else:
                    failures.append(f"smoothness({at},levels={j - 3})")
    return SuiteResult(
        name="constants-vs-oracles",
        passed=not failures,
        checks=checks,
        failures=failures,
        elapsed=time.perf_counter() - start,
    )


def _envelopes(n, taus, profile, rho_fn):
    """Both complexity envelopes on the ``(taus, q)`` grid, one row per tau."""
    qs = np.arange(0.0, 1.0 + 1e-12, 1e-3)
    qs[-1] = 1.0
    cfg = complexity.InterpolationConfig(q=qs, tau=taus[:, None], n=n)
    l1 = complexity.expected_smoothness(cfg, profile)
    cost = cfg.cost_per_iter
    g_smooth = complexity.smoothness_term(l1, profile.mu, cost)
    return qs, g_smooth, complexity.residual_term(
        complexity.theta(cfg), rho_fn(cfg), profile.L_max, profile.mu, n, cost)


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
    Slacks are relative to the local envelope magnitude.  Each (n, condition
    scale) evaluates its envelopes once, on the whole ``(taus, q)`` grid.
    """
    rho_fn = rho_fn or complexity.sketch_residual
    failures = []
    checks = 0
    start = time.perf_counter()
    for n in n_values:
        taus = sorted(
            {4, 5, 6, 8}
            | {min(n, max(4, round(n ** (k / (taus_per_n - 1.0)))) ) for k in range(taus_per_n)}
            | {n}
        )
        taus = np.array([t for t in taus if 4 <= t <= n], dtype=np.int64)
        roots = np.column_stack(planner.branch_roots(taus, n))  # (taus, 2): q-, q+
        q_minus, q_plus = roots[:, :1], roots[:, 1:]
        th = n / (roots * (taus[:, None] - 1) + 1.0)
        threshold = (n / taus[:, None]) * ((n - 1) / (taus[:, None] - 1))
        root_bad = np.abs(roots * th * th - threshold) > 1e-9 * threshold
        low = 1.0 / (n - 1) ** 2
        cap = (n + 1 - 2 * math.sqrt(n)) / (3 * (n - 1))
        cap_plus = (n + 1 + 2 * math.sqrt(n)) / (3 * (n - 1))
        chain = (
            (low <= q_minus + 1e-9)
            & (q_minus <= cap + 1e-9)
            & (cap <= 1.0 / 3.0 + 1e-9)
            & (1.0 / 3.0 <= cap_plus + 1e-9)
            & (cap_plus <= q_plus + 1e-9)
            & (q_plus <= 1.0 + 1e-9)
        )[:, 0]
        for cond_scale in COND_SCALES:
            l_max = 1.0
            mu = 4.0 * l_max / (cond_scale * (n - 1))
            profile = SmoothnessProfile.uniform(n, l_max, mu)
            qs, g_smooth, g_resid = _envelopes(n, taus, profile, rho_fn)
            scale = np.fmax(1.0, np.max(np.abs(g_resid), axis=1))[:, None]
            decreasing = np.min(np.diff(g_smooth), axis=1) < -1e-9 * np.fmax(
                1.0, np.max(np.abs(g_smooth), axis=1))
            outside = (qs[1:] <= q_minus) | (qs[:-1] >= q_plus)
            increasing = np.any((np.diff(g_resid) > 1e-9 * scale) & outside, axis=1)
            # strict interior: the residual has a derivative kink exactly
            # at the branch roots, so skip one grid step at each end
            h = qs[1] - qs[0]
            inner = (qs[1:-1] > q_minus + h) & (qs[1:-1] < q_plus - h)
            second = g_resid[:, 2:] - 2.0 * g_resid[:, 1:-1] + g_resid[:, :-2]
            not_concave = np.any((second > 1e-9 * scale) & inner, axis=1)
            for k, tau in enumerate(taus.tolist()):
                checks += 1
                if math.isnan(roots[k, 0]):
                    failures.append(f"missing-roots(n={n},tau={tau})")
                    continue
                for root, bad in zip(roots[k], root_bad[k]):
                    if bad:
                        failures.append(f"root-residual(n={n},tau={tau},q={root:.4f})")
                for name, bad in (("root-bounds", not chain[k]),
                                  ("smoothness-envelope-decreasing", decreasing[k]),
                                  ("residual-envelope-increasing", increasing[k]),
                                  ("residual-envelope-not-concave", not_concave[k])):
                    if bad:
                        failures.append(f"{name}(n={n},tau={tau})")
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
