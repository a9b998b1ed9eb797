import hashlib
import math
from dataclasses import astuple, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sagd import planner as pl
from sagd.complexity import (
    InterpolationConfig, full_batch_interpolation, stepsize, theta, total_complexity,
)
from sagd.exceptions import InvalidInputError
from sagd.problem import SmoothnessProfile


def _uniform(n, l_max=1.0, mu=0.1):
    return SmoothnessProfile.uniform(n, l_max, mu)


class TestBranchRoots:
    def test_roots_solve_defining_equation(self):
        for n in (10, 50, 100, 1000):
            for tau in (4, 7, n // 2, n):
                q_minus, q_plus = pl.branch_roots(tau, n)
                threshold = (n / tau) * ((n - 1) / (tau - 1))
                for root in (q_minus, q_plus):
                    cfg = InterpolationConfig(q=min(max(root, 0.0), 1.0), tau=tau, n=n)
                    resid = abs(root * theta(cfg) ** 2 - threshold)
                    assert resid <= 1e-9 * threshold

    def test_full_batch_lower_root(self):
        for n in (5, 20, 200):
            q_minus, q_plus = pl.branch_roots(n, n)
            assert abs(q_minus - 1.0 / (n - 1) ** 2) <= 1e-12
            assert abs(q_plus - 1.0) <= 1e-12

    def test_tau_four_large_n_limit(self):
        n = 100_000
        q_minus, _ = pl.branch_roots(4, n)
        expect = (n + 1 - 2 * math.sqrt(n)) / (3 * (n - 1))
        assert abs(q_minus - expect) <= 1e-9 * expect

    def test_negative_discriminant_absent(self):
        assert all(math.isnan(r) for r in pl.branch_roots(2, 5))  # 4(1-5) + 10 = -6

    def test_tau_one_absent(self):
        assert all(math.isnan(r) for r in pl.branch_roots(1, 9))

    @pytest.mark.parametrize("n", [2, 3, 5, 37, 100])
    def test_array_equals_scalar_calls(self, n):
        taus = np.arange(1, n + 1)
        arrays = pl.branch_roots(taus, n)
        for i, tau in enumerate(taus.tolist()):
            roots = pl.branch_roots(tau, n)
            assert [type(r) for r in roots] == [float, float]
            for root, column in zip(roots, arrays):
                assert np.array_equal(root, column[i], equal_nan=True)

    @pytest.mark.parametrize(
        "tau,n,message",
        [
            (0, 5, "got tau=0, n=5"),
            (6, 5, "got tau=6, n=5"),
            ([1, 5, 0, 7], 5, "got tau=0, n=5"),
            (math.nan, 5, "got tau=nan, n=5"),
            (1, 1, "need n >= 2"),
        ],
    )
    def test_validation_names_first_bad_tau(self, tau, n, message):
        with pytest.raises(InvalidInputError, match=message):
            pl.branch_roots(tau, n)

    def test_bound_chain(self):
        for n in (10, 50, 100, 1000):
            taus = sorted(set([4, 5, 8, n // 3 or 4, n // 2 or 4, n]) & set(range(4, n + 1)))
            low = 1.0 / (n - 1) ** 2
            cap_minus = (n + 1 - 2 * math.sqrt(n)) / (3 * (n - 1))
            cap_plus = (n + 1 + 2 * math.sqrt(n)) / (3 * (n - 1))
            for tau in taus:
                q_minus, q_plus = pl.branch_roots(tau, n)
                assert low <= q_minus + 1e-9
                assert q_minus <= cap_minus + 1e-9
                assert cap_minus <= 1 / 3 + 1e-9
                assert 1 / 3 <= cap_plus + 1e-9
                assert cap_plus <= q_plus + 1e-9
                assert q_plus <= 1.0 + 1e-9

    def test_monotonicity_in_tau(self):
        for n in (10, 100, 1000):
            taus = range(4, n + 1, max(1, (n - 4) // 50))
            minus = [pl.branch_roots(t, n)[0] for t in taus]
            plus = [pl.branch_roots(t, n)[1] for t in taus]
            assert all(a >= b - 1e-12 for a, b in zip(minus, minus[1:]))
            assert all(a <= b + 1e-12 for a, b in zip(plus, plus[1:]))


class TestTauWindow:
    def test_low_condition_gives_full_window(self):
        # n <= 4 L_max / mu: no high-branch window
        _, tau_max = pl.tau_window(10, 1.0, 0.2)  # 4/mu = 20 > n
        assert tau_max == 10

    def test_boundary_condition_number(self):
        # n exactly 4 L_max / mu: continuity side, tau_max = n
        _, tau_max = pl.tau_window(8, 1.0, 0.5)
        assert tau_max == 8

    def test_tau_min_formula_and_range(self):
        n, l_max = 10, 1.0
        mu = 4 * l_max / (n - 1)
        tau_min, tau_max = pl.tau_window(n, l_max, mu)
        assert abs(tau_min - (n / (n - 1) + 1 - 1 / (n - 1))) <= 1e-12
        assert 1.0 <= tau_min <= n
        assert tau_max <= n

    def test_intersection_hits_one_at_tau_min(self):
        for n, l_max, mu in [(50, 1.0, 0.02), (200, 2.0, 0.1)]:
            tau_min, _ = pl.tau_window(n, l_max, mu)
            cond = 4 * l_max / mu
            q = (n - 1) / ((tau_min - 1) * (tau_min * cond + 1 - n))
            assert abs(q - 1.0) <= 1e-6

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            pl.tau_window(5, 0.1, 0.2)  # L_max < mu


class TestQIntersections:
    def test_envelopes_equal_at_intersection(self):
        for n, l_max, mu in [(100, 1.0, 0.05), (500, 1.0, 4.0 / 750)]:
            prof = _uniform(n, l_max, mu)
            taus = np.arange(2, n + 1)
            _, qs = pl.q_intersections(taus, n, l_max, mu)
            found = ~np.isnan(qs)
            assert found.any()
            assert np.all((0.0 <= qs[found]) & (qs[found] <= 1.0))
            mc = total_complexity(InterpolationConfig(q=qs[found], tau=taus[found], n=n), prof)
            gap = np.abs(mc.smoothness_term - mc.residual_term)
            assert np.all(gap <= 1e-6 * np.maximum(mc.smoothness_term, mc.residual_term))

    def test_high_branch_kind_needs_low_condition(self):
        # n <= 4 L_max / mu leaves no room for the high-branch intersection
        n, l_max, mu = 10, 1.0, 0.2
        kinds, qs = pl.q_intersections(np.arange(2, n + 1), n, l_max, mu)
        assert pl.KIND_Q_I2 not in kinds[~np.isnan(qs)]

    def test_high_branch_appears_above_window(self):
        n, l_max, mu = 100, 1.0, 0.5  # 4 L_max / mu = 8 << n
        _, tau_max = pl.tau_window(n, l_max, mu)
        kind, q = pl.q_intersections(int(math.floor(tau_max)) + 1, n, l_max, mu)
        assert kind == pl.KIND_Q_I2
        assert 0.0 < q <= 1.0

    @pytest.mark.parametrize("n,cond", [(2, 4.0), (10, 5.0), (37, 0.7 * 37), (100, 500.0)])
    def test_array_equals_scalar_calls(self, n, cond):
        l_max, mu = 1.3, 4.0 * 1.3 / cond
        taus = np.arange(2, n + 1)
        kinds, qs = pl.q_intersections(taus, n, l_max, mu)
        for i, tau in enumerate(taus.tolist()):
            kind, q = pl.q_intersections(tau, n, l_max, mu)
            assert (type(kind), type(q)) == (str, float)
            assert kind == kinds[i] and np.array_equal(q, qs[i], equal_nan=True)

    @pytest.mark.parametrize("tau", [1, 11, [2, 10, 1, 0]])
    def test_validation_names_first_bad_tau(self, tau):
        bad = tau[2] if isinstance(tau, list) else tau
        with pytest.raises(InvalidInputError, match=f"need 2 <= tau <= n, got tau={bad}, n=10"):
            pl.q_intersections(tau, 10, 1.0, 0.1)


class TestOptimalMinibatchTau:
    def test_rounds_down_to_one(self):
        assert pl.optimal_minibatch_tau(100, 0.001, 1.0) == 1

    def test_arithmetic_example(self):
        # round(1 + 1000 / 100) with 4 L_max / mu = 100
        assert pl.optimal_minibatch_tau(1001, 0.04, 1.0) == 11

    def test_half_rounds_up(self):
        # 1 + mu (n-1) / (4 L_max) = 1.5 exactly
        assert pl.optimal_minibatch_tau(3, 1.0, 1.0) == 2

    def test_matches_exhaustive_scan_within_one(self):
        for n, mu, l_max in [(50, 0.05, 1.0), (200, 0.02, 1.0), (100, 0.5, 1.0)]:
            prof = _uniform(n, l_max, mu)
            t_round = pl.optimal_minibatch_tau(n, mu, l_max)
            t_scan = min(
                range(1, n + 1),
                key=lambda t: total_complexity(InterpolationConfig(1.0, t, n), prof).omega_coef,
            )
            assert abs(t_round - t_scan) <= 1


class TestOptimalPlan:
    def test_beats_baseline_badly_conditioned(self):
        n = 200
        prof = _uniform(n, 1.0, 4.0 / (5 * n))  # 4 L_max / mu = 5n
        plan = pl.optimal_plan(prof)
        assert plan.best.q_kind != pl.KIND_SAGA_BASELINE
        assert plan.best.omega_coef <= plan.saga_omega

    def test_beats_baseline_well_conditioned(self):
        n = 1000
        prof = _uniform(n, 1.001, 0.05)
        plan = pl.optimal_plan(prof)
        assert plan.best.omega_coef <= plan.saga_omega

    def test_baseline_candidate_present(self):
        slate = pl.optimal_plan(_uniform(30, 1.0, 0.05)).all_candidates
        assert slate.q_kind.tolist().count(pl.KIND_SAGA_BASELINE) == 1
        assert (slate.q_kind[0], slate.q[0], slate.tau[0]) == (pl.KIND_SAGA_BASELINE, 0.0, 1)

    def test_candidate_count_bound(self):
        for n in (10, 50, 200):
            plan = pl.optimal_plan(_uniform(n, 1.0, 0.05))
            assert len(plan.all_candidates) <= 2 * (n - 1) + 2

    def test_candidates_carry_consistent_omega(self):
        n = 40
        prof = _uniform(n, 1.0, 0.04)
        slate = pl.optimal_plan(prof).all_candidates
        for tau, q, omega in zip(slate.tau.tolist(), slate.q.tolist(), slate.omega_coef.tolist()):
            mc = total_complexity(InterpolationConfig(q=q, tau=tau, n=n), prof)
            assert omega == mc.omega_coef

    def test_best_is_minimum(self):
        plan = pl.optimal_plan(_uniform(60, 1.0, 0.02))
        assert plan.best.omega_coef == plan.all_candidates.omega_coef.min()

    def test_qs_are_probabilities(self):
        plan = pl.optimal_plan(_uniform(80, 1.0, 0.3))
        qs = plan.all_candidates.q
        assert np.all((0.0 <= qs) & (qs <= 1.0))

    def test_uncovered_roots_only_for_tiny_tau(self):
        slate = pl.optimal_plan(_uniform(4, 1.0, 0.2)).all_candidates
        uncovered = slate[~slate.covered]
        assert set(uncovered.q_kind.tolist()) <= {pl.KIND_Q_MINUS}
        assert set(uncovered.tau.tolist()) <= {2, 3}

    @pytest.mark.parametrize(
        "n,cond",
        [(40, 10.0), (40, 120.0), (60, 59.0), (30, 300.0)],
    )
    def test_candidate_set_contains_dense_grid_minimum(self, n, cond):
        # the planner claims its closed-form candidates include the global
        # minimizer; no point of a dense (q, tau) grid may beat it
        mu = 4.0 / cond
        prof = _uniform(n, 1.0, mu)
        plan = pl.optimal_plan(prof)
        grid_min = math.inf
        for tau in range(1, n + 1):
            for qi in range(0, 1001):
                cfg = InterpolationConfig(q=qi / 1000, tau=tau, n=n)
                grid_min = min(grid_min, total_complexity(cfg, prof).omega_coef)
        assert plan.best.omega_coef <= grid_min * (1 + 1e-9)

    def test_stepsize_uses_true_profile(self):
        n = 50
        levels = np.linspace(0.5, 2.0, n)
        prof = SmoothnessProfile(n, float(levels.max()), float(levels.mean()), 0.05, "exact-eigen")
        plan = pl.optimal_plan(prof)
        for row in plan.all_candidates[:5].tolist():
            c = pl.PlanCandidate(*row)
            assert c.alpha == stepsize(InterpolationConfig(q=c.q, tau=c.tau, n=n), prof)



class TestPlanOneValue:
    @pytest.mark.parametrize("n,cond", [(40, 10.0), (40, 120.0), (60, 59.0), (30, 300.0)])
    def test_plan_q_beats_dense_grid(self, n, cond):
        # with tau held fixed, no q of a dense grid beats the planned one
        prof = _uniform(n, 1.0, 4.0 / cond)
        for tau in (1, 2, 3, n // 3, n - 1, n):
            q, omega = pl.plan_q(prof, tau)
            assert omega == total_complexity(InterpolationConfig(q, tau, n), prof).omega_coef
            grid = total_complexity(InterpolationConfig(np.linspace(0.0, 1.0, 1001), tau, n), prof)
            assert omega <= grid.omega_coef.min() * (1 + 1e-9)
            if tau == 1:
                assert q == 0.0

    @pytest.mark.parametrize("q", [0.0, 0.3, 0.98, 1.0])
    def test_plan_tau_equals_scalar_scan(self, q):
        # ties go to the larger tau; q = 0 ties everywhere and gives tau = n
        n = 50
        prof = _uniform(n, 1.0, 0.05)
        omega = [total_complexity(InterpolationConfig(q, t, n), prof).omega_coef
                 for t in range(1, n + 1)]
        tau = max(range(1, n + 1), key=lambda t: (-omega[t - 1], t))
        assert pl.plan_tau(prof, q) == (tau, omega[tau - 1])

    def test_plans_use_the_uniform_profile(self):
        levels = np.linspace(0.5, 2.0, 20)
        prof = SmoothnessProfile(20, 2.0, float(levels.mean()), 0.05, "exact-eigen")
        uniform = _uniform(20, 2.0, 0.05)
        assert pl._ranking_profile(prof) == SmoothnessProfile(20, 2.0, 2.0, 0.05, "exact-eigen")
        assert pl.plan_q(prof, 7) == pl.plan_q(uniform, 7)
        assert pl.plan_tau(prof, 0.4) == pl.plan_tau(uniform, 0.4)

    def test_results_pinned(self):
        # sha256 of the reprs of plan_q, plan_tau and full_batch_interpolation
        # over explicit uniform and non-uniform profiles, taken before these
        # functions read n from the profile
        digests = {name: hashlib.sha256() for name in ("plan_q", "plan_tau", "full_batch")}
        for n in (2, 3, 7, 40):
            for cond in (0.7 * n, 5.0 * n):
                for ratio in (1.0, 0.7):
                    mu = 4.0 * 1.3 / max(4.0, cond)
                    prof = SmoothnessProfile.from_bounds(n, 1.3, ratio * 1.3, mu)
                    for tau in sorted({1, 2, (n + 1) // 2, n}):
                        digests["plan_q"].update(repr(pl.plan_q(prof, tau)).encode())
                    for q in (0.0, 0.3, 1.0):
                        digests["plan_tau"].update(repr(pl.plan_tau(prof, q)).encode())
                    if n >= 3:
                        fb = full_batch_interpolation(prof)
                        digests["full_batch"].update(repr(fb).encode())
        assert {name: h.hexdigest() for name, h in digests.items()} == {
            "plan_q": "510b84f9b56988969464db1ca74bbd4d09a868cef5dc29263a543716bc99a832",
            "plan_tau": "8c25279ab2ab65b94510211cffaa81aaf29ae73da5016ba6c41bfbf9bd9309fe",
            "full_batch": "d6ce4b4248b4efc19ea3858585c8b0558b30274ff7cb2d2257f229965ba39a5a",
        }


@st.composite
def _explicit_profiles(draw):
    """n in [2, 2000], 4 L_max / mu from 0.01 n to 1000 n (and at least 4, so
    that mu <= L_max), L_bar / L_max in (0, 1]."""
    n = draw(st.integers(2, 2000))
    cond = max(4.0, n * 10.0 ** draw(st.floats(-2.0, 3.0)))
    l_max = draw(st.floats(0.01, 100.0))
    ratio = draw(st.floats(0.0, 1.0, exclude_min=True))
    return SmoothnessProfile(n, l_max, ratio * l_max, 4.0 * l_max / cond, "exact-eigen")


class TestPlanProperties:
    @settings(max_examples=150, deadline=None)
    @given(_explicit_profiles())
    def test_plan_beats_saga_by_at_most_one_evaluation(self, prof):
        # ROADMAP finding F5: the planned pair saves at most one gradient
        # evaluation per log(1/eps) over the single-sample baseline
        plan = pl.optimal_plan(prof)
        assert plan.saga_omega - plan.best.omega_coef <= 1 + 1e-9 * plan.saga_omega

    @settings(max_examples=150, deadline=None)
    @given(_explicit_profiles())
    def test_entry_points_share_one_ranking(self, prof):
        # plan_q at the planned tau and plan_tau at the planned q find the
        # planned omega exactly: the three planners rank the same way
        best = pl.optimal_plan(prof).best
        assert pl.plan_q(prof, best.tau)[1] == best.omega_coef
        assert pl.plan_tau(prof, best.q)[1] == best.omega_coef


def _scalar_slate(profile, n):
    """The planner's candidate list built one (q, tau) at a time."""
    l_max, mu = profile.L_max, profile.mu
    uniform = SmoothnessProfile(n, l_max, l_max, mu, profile.mu_source)

    def make(tau, kind, q, covered=True):
        cfg = InterpolationConfig(q=q, tau=tau, n=n)
        omega = total_complexity(cfg, uniform).omega_coef
        return pl.PlanCandidate(tau, kind, q, omega, stepsize(cfg, profile), covered)

    slate = [make(1, pl.KIND_SAGA_BASELINE, 0.0)]
    t_round = pl.optimal_minibatch_tau(n, mu, l_max)
    t_scan = min(
        range(1, n + 1),
        key=lambda t: (total_complexity(InterpolationConfig(1.0, t, n), uniform).omega_coef, -t),
    )
    slate.append(make(t_round, pl.KIND_ONE, 1.0))
    if t_scan != t_round:
        slate.append(make(t_scan, pl.KIND_ONE, 1.0))
    for tau in range(2, n + 1):
        q_minus, _ = pl.branch_roots(tau, n)
        if 0.0 <= q_minus <= 1.0:  # False for NaN
            slate.append(make(tau, pl.KIND_Q_MINUS, q_minus, covered=tau >= 4))
        kind, q = pl.q_intersections(tau, n, l_max, mu)
        if not math.isnan(q):
            slate.append(make(tau, kind, q))
    return slate


class TestVectorizedPlan:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 10, 37, 100])
    @pytest.mark.parametrize("scale,offset", [(0.7, 0.0), (1.0, -1.0), (1.0, 0.0), (5.0, 0.0)])
    @pytest.mark.parametrize("l_bar_ratio", [1.0, 0.7])
    def test_candidates_equal_scalar_loop(self, n, scale, offset, l_bar_ratio):
        # 4 L_max / mu = scale * n + offset, at least 4 so that mu <= L_max
        l_max = 1.3
        cond = max(4.0, scale * n + offset)
        prof = SmoothnessProfile.from_bounds(n, l_max, l_bar_ratio * l_max, 4.0 * l_max / cond)
        plan = pl.optimal_plan(prof)
        slate = _scalar_slate(prof, n)
        assert plan.all_candidates.dtype.names == tuple(f.name for f in fields(pl.PlanCandidate))
        assert len(plan.all_candidates) == len(slate)
        assert plan.all_candidates.tolist() == [astuple(c) for c in slate]
        assert plan.best == min(slate, key=lambda c: (c.omega_coef, -c.tau, c.q))
        assert plan.saga_omega == slate[0].omega_coef
        assert [type(v) for v in astuple(plan.best)] == [int, str, float, float, float, bool]
        assert type(plan.saga_omega) is float
