import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sagd import complexity as cx
from sagd import sketch_oracle as oracle
from sagd.exceptions import InvalidInputError
from sagd.problem import SmoothnessProfile


def _uniform(n, l_max=1.0, mu=0.1):
    return SmoothnessProfile.uniform(n, l_max, mu)


def _profile_from_levels(levels, mu=1e-3):
    levels = np.asarray(levels, float)
    return SmoothnessProfile(levels.size, float(levels.max()), float(levels.mean()), mu, "lambda-lower-bound")


class TestBiasCorrection:
    def test_single_sample_limit(self):
        assert cx.theta(cx.InterpolationConfig(q=0.0, tau=7, n=10)) == 10.0

    def test_full_gradient_limit(self):
        assert cx.theta(cx.InterpolationConfig(q=1.0, tau=10, n=10)) == 1.0

    def test_matches_unbiasedness_enumeration(self):
        cfg = cx.InterpolationConfig(q=0.5, tau=3, n=6)
        assert abs(cx.theta(cfg) - oracle.oracle_bias_correction(6, 3, 0.5)) <= 1e-12

    def test_times_cost_equals_n(self):
        for n in (2, 5, 9):
            for tau in range(1, n + 1):
                for q in (0.0, 0.25, 0.6, 1.0):
                    cfg = cx.InterpolationConfig(q=q, tau=tau, n=n)
                    assert abs(cx.theta(cfg) * cfg.cost_per_iter - n) <= 1e-12 * n

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            cx.InterpolationConfig(q=1.5, tau=1, n=3)
        with pytest.raises(InvalidInputError):
            cx.InterpolationConfig(q=0.5, tau=4, n=3)


class TestExpectedSmoothness:
    def test_single_sample_limit_is_l_max(self):
        prof = _profile_from_levels([0.5, 2.0, 1.0])
        cfg = cx.InterpolationConfig(q=0.0, tau=2, n=3)
        assert cx.expected_smoothness(cfg, prof) == 2.0
        cfg = cx.InterpolationConfig(q=0.7, tau=1, n=3)
        assert cx.expected_smoothness(cfg, prof) == 2.0

    def test_uniform_levels_closed_form(self):
        # with identical levels: L_max (q (tau^2 - 1) + 1) / (q (tau - 1) + 1)^2
        l_max = 1.7
        for n, tau, q in [(8, 3, 0.4), (5, 5, 0.2), (12, 7, 1.0)]:
            prof = _uniform(n, l_max=l_max)
            cfg = cx.InterpolationConfig(q=q, tau=tau, n=n)
            expect = l_max * (q * (tau**2 - 1) + 1) / (q * (tau - 1) + 1) ** 2
            got = cx.expected_smoothness(cfg, prof)
            assert abs(got - expect) <= 1e-12 * expect

    def test_matches_subset_enumeration(self):
        rng = np.random.default_rng(42)
        levels = rng.uniform(0.5, 2.0, 6)
        prof = _profile_from_levels(levels)
        cfg = cx.InterpolationConfig(q=0.4, tau=3, n=6)
        got = cx.expected_smoothness(cfg, prof)
        want = oracle.oracle_expected_smoothness(6, 3, 0.4, levels)
        assert abs(got - want) <= 1e-12 * want

    def test_degenerate_single_sample_problem(self):
        prof = _profile_from_levels([1.3])
        cfg = cx.InterpolationConfig(q=0.5, tau=1, n=1)
        assert cx.expected_smoothness(cfg, prof) == 1.3


def _residual_expressions(n, tau, q):
    """The low and high expressions of the residual, in the calculus's
    operation order, as plain Python float arithmetic."""
    th = n / (q * (tau - 1) + 1.0)
    low = th * th * ((1.0 - q) / n + q * (tau / n) * ((n - tau) / (n - 1)))
    return low, low + n * (th * th * q * (tau / n) * ((tau - 1) / (n - 1)) - 1.0)


class TestSketchResidual:
    def test_single_sample_baseline(self):
        assert cx.sketch_residual(cx.InterpolationConfig(q=0.0, tau=1, n=10)) == 10.0
        assert abs(oracle.oracle_sketch_residual(10, 1, 0.0) - 10.0) <= 1e-9

    def test_full_gradient_is_zero(self):
        assert cx.sketch_residual(cx.InterpolationConfig(q=1.0, tau=6, n=6)) == 0.0

    def test_known_crossing_value(self):
        n = 9
        rho = cx.sketch_residual(cx.InterpolationConfig(q=1.0 / (n - 1) ** 2, tau=n, n=n))
        assert abs(rho - (n - 2)) <= 1e-12 * n

    def test_branch_continuity(self):
        # both expressions agree at the crossing of q theta^2 with the threshold
        from sagd.planner import branch_roots

        for n, tau in [(6, 4), (10, 5), (30, 8)]:
            q_minus, q_plus = branch_roots(tau, n)
            for root in (q_minus, q_plus):
                low, high = _residual_expressions(n, tau, root)
                assert abs(low - high) <= 1e-9 * max(1.0, abs(low))

    @pytest.mark.parametrize("n, tau", [(6, 4), (10, 5), (30, 8), (100, 31), (1000, 1000)])
    def test_low_expression_within_band_high_just_outside(self, n, tau):
        # q theta^2 rises through the threshold at q-: the band around the
        # crossing takes the low expression, a step of 1e-9 in q either side
        # of it leaves the band onto the low and the high expression
        from sagd.planner import branch_roots

        q_minus, _ = branch_roots(tau, n)
        threshold = (n / tau) * ((n - 1) / (tau - 1))
        th = n / (q_minus * (tau - 1) + 1.0)
        assert abs(q_minus * th * th - threshold) <= 1e-12 * max(1.0, threshold)
        qs = np.array([q_minus, q_minus * (1 - 1e-9), q_minus * (1 + 1e-9)])
        rho = cx.sketch_residual(cx.InterpolationConfig(q=qs, tau=tau, n=n))
        (low, _), (below, _), (low_above, high_above) = (
            _residual_expressions(n, tau, q) for q in qs.tolist())
        assert rho.tolist() == [low, below, high_above]
        assert high_above != low_above
        for q, r in zip(qs.tolist(), rho.tolist()):
            assert cx.sketch_residual(cx.InterpolationConfig(q=q, tau=tau, n=n)) == r

    def test_nonnegative_everywhere(self):
        for n in range(2, 9):
            for tau in range(1, n + 1):
                for qi in range(21):
                    cfg = cx.InterpolationConfig(q=qi / 20, tau=tau, n=n)
                    assert cx.sketch_residual(cfg) >= -1e-12

    def test_tau_one_is_the_low_expression(self):
        for q in (0.0, 0.3, 1.0):
            low, _ = _residual_expressions(5, 1, q)
            assert cx.sketch_residual(cx.InterpolationConfig(q=q, tau=1, n=5)) == low


class TestStepsize:
    def test_single_sample_uniform_levels(self):
        n, l_max, mu = 20, 1.5, 0.02
        prof = _uniform(n, l_max, mu)
        alpha = cx.stepsize(cx.InterpolationConfig(q=0.0, tau=1, n=n), prof)
        assert abs(alpha - 1.0 / (4 * l_max + mu * n)) <= 1e-15

    def test_well_conditioned_full_batch_closed_form(self):
        n, l_max = 40, 1.0
        mu = 4 * l_max / (n - 5)  # 4 L_bar / mu < n - 1 with uniform levels
        prof = _uniform(n, l_max, mu)
        alpha = cx.stepsize(cx.InterpolationConfig(q=1.0 / (n - 1) ** 2, tau=n, n=n), prof)
        expect = 1.0 / (4 * (1 - 2 / n) * l_max + mu * (n - 1))
        assert abs(alpha - expect) <= 1e-12 * expect

    def test_badly_conditioned_full_batch_closed_form(self):
        for n, l_max, l_bar, mu in [(10, 3.0, 2.0, 1.0), (50, 1.0, 0.7, 0.01)]:
            prof = SmoothnessProfile.from_bounds(n, l_max, l_bar, mu)
            assert 4 * prof.L_bar / mu >= n - 1 or n == 10
            q = mu / (4 * n * prof.L_bar)
            alpha = cx.stepsize(cx.InterpolationConfig(q=q, tau=n, n=n), prof)
            fb = cx.full_batch_interpolation(prof)
            if fb.regime == "bad":
                assert abs(alpha - fb.alpha) <= 1e-12 * fb.alpha


class TestTotalComplexity:
    def test_single_sample_baseline(self):
        n, l_max, mu = 16, 1.2, 0.05
        mc = cx.total_complexity(cx.InterpolationConfig(q=0.0, tau=1, n=n), _uniform(n, l_max, mu))
        assert abs(mc.omega_coef - (n + 4 * l_max / mu)) <= 1e-9 * mc.omega_coef

    def test_pure_minibatch_envelopes(self):
        n, l_max, mu = 13, 1.0, 0.08
        prof = _uniform(n, l_max, mu)
        for tau in range(1, n + 1):
            mc = cx.total_complexity(cx.InterpolationConfig(q=1.0, tau=tau, n=n), prof)
            want_smooth = 4 * l_max * tau / mu
            want_resid = n + (4 * l_max / mu) * (n - tau) / (n - 1)
            assert abs(mc.smoothness_term - want_smooth) <= 1e-9 * want_smooth
            assert abs(mc.residual_term - want_resid) <= 1e-9 * want_resid

    def test_full_batch_well_conditioned_form(self):
        n, l_max = 25, 1.0
        mu = 4 * l_max / (n - 1)  # uniform levels: exactly the regime boundary
        prof = _uniform(n, l_max, mu)
        mc = cx.total_complexity(
            cx.InterpolationConfig(q=1.0 / (n - 1) ** 2, tau=n, n=n), prof
        )
        want = n + (n - 2) / (n - 1) * (4 * l_max / mu)
        assert abs(mc.omega_coef - want) <= 1e-9 * want

    def test_fields_consistent(self):
        cfg = cx.InterpolationConfig(q=0.45, tau=5, n=12)
        prof = _profile_from_levels(np.linspace(0.5, 2.0, 12), mu=0.05)
        mc = cx.total_complexity(cfg, prof)
        assert abs(cx.theta(cfg) * cfg.cost_per_iter - 12) <= 1e-12 * 12
        assert mc.omega_coef == max(mc.smoothness_term, mc.residual_term)
        assert mc.stepsize == cx.stepsize(cfg, prof)


def _reference_constants(n, tau, q, prof):
    """The calculus as plain Python float arithmetic, one (q, tau) at a
    time: (expected smoothness, residual, stepsize, omega)."""
    cost = q * (tau - 1) + 1.0
    th = n / cost
    if n == 1:
        l1, rho = prof.L_max, 0.0
    else:
        lead = (q * (tau * (n - tau) / (n - 1) - 1.0) + 1.0) * prof.L_max
        mix = n * q * tau * (tau - 1) / (n - 1) * prof.L_bar
        l1 = (lead + mix) / (cost * cost)
        rho = th * th * ((1.0 - q) / n + q * (tau / n) * ((n - tau) / (n - 1)))
        if tau > 1:
            t = q * th * th
            threshold = (n / tau) * ((n - 1) / (tau - 1))
            if t > threshold and abs(t - threshold) > 1e-12 * max(1.0, threshold):
                rho = rho + n * (th * th * q * (tau / n) * ((tau - 1) / (n - 1)) - 1.0)
    g_smooth = (4.0 * l1 / prof.mu) * cost
    g_resid = (th + 4.0 * rho * prof.L_max / (prof.mu * n)) * cost
    alpha = min(1.0 / (4.0 * l1), n / (4.0 * prof.L_max * rho + prof.mu * th * n))
    return l1, rho, alpha, max(g_smooth, g_resid)


@st.composite
def _slates(draw):
    """n, a batch of (tau, q) pairs for it, and a random smoothness profile."""
    n = draw(st.integers(1, 60))
    size = draw(st.integers(1, 10))
    taus = draw(st.lists(st.integers(1, n), min_size=size, max_size=size))
    q = st.one_of(st.sampled_from([0.0, 1.0, 1.0 / max(1, n - 1) ** 2]), st.floats(0.0, 1.0))
    qs = draw(st.lists(q, min_size=size, max_size=size))
    levels = draw(st.lists(st.floats(0.01, 100.0), min_size=1, max_size=8))
    return n, taus, qs, _profile_from_levels(levels, mu=draw(st.floats(1e-4, 10.0)))


class TestArrayCalculus:
    @settings(max_examples=300, deadline=None)
    @given(_slates())
    def test_array_calls_equal_scalar_calls(self, slate):
        n, taus, qs, prof = slate
        cfg = cx.InterpolationConfig(q=np.array(qs), tau=np.array(taus), n=n)

        def constants(c):  # what total_complexity is built from, by name
            return {"theta": cx.theta(c), "expected_smoothness": cx.expected_smoothness(c, prof),
                    "sketch_residual": cx.sketch_residual(c)}

        arr, arr_constants = cx.total_complexity(cfg, prof), constants(cfg)
        alphas = cx.stepsize(cfg, prof)
        for i, (tau, q) in enumerate(zip(taus, qs)):
            one_cfg = cx.InterpolationConfig(q=q, tau=tau, n=n)
            one, one_constants = cx.total_complexity(one_cfg, prof), constants(one_cfg)
            for field in dataclasses.fields(one):
                assert getattr(arr, field.name)[i] == getattr(one, field.name), field.name
            for name, value in one_constants.items():
                assert type(value) is float, name
                assert arr_constants[name][i].tobytes() == np.float64(value).tobytes(), name
            assert alphas[i] == cx.stepsize(one_cfg, prof) == one.stepsize
            assert type(one.omega_coef) is float
            l1, rho = one_constants["expected_smoothness"], one_constants["sketch_residual"]
            assert (l1, rho, one.stepsize, one.omega_coef) == _reference_constants(n, tau, q, prof)

    def test_scalar_calls_return_python_types(self):
        cfg = cx.InterpolationConfig(q=0.3, tau=4, n=9)
        prof = _uniform(9)
        assert type(cx.expected_smoothness(cfg, prof)) is float
        assert type(cx.sketch_residual(cfg)) is float
        assert type(cx.stepsize(cfg, prof)) is float

    @pytest.mark.parametrize("l_bar", [0.0, 5e-324])
    def test_zero_expected_smoothness_takes_the_residual_bound(self, l_bar, recwarn):
        # at (q, tau) = (1, n) the expected smoothness is L_bar, so its bound
        # 1 / (4 l1) is infinite and the residual bound n / (4 L_max rho + mu theta n) wins
        n, prof = 10, SmoothnessProfile(10, 1.0, l_bar, 0.1, "x")
        cfg = cx.InterpolationConfig(q=1.0, tau=n, n=n)
        one = cx.total_complexity(cfg, prof)
        arr = cx.stepsize(cx.InterpolationConfig(q=np.array([1.0]), tau=n, n=n), prof)
        rho, th = cx.sketch_residual(cfg), cx.theta(cfg)
        residual_bound = n / (4.0 * prof.L_max * rho + prof.mu * th * n)
        assert type(one.stepsize) is float
        assert one.stepsize == arr[0] == residual_bound == 10.0
        assert np.array(one.stepsize).tobytes() == arr.tobytes()
        assert len(recwarn) == 0

    def test_array_config_validation(self):
        with pytest.raises(InvalidInputError):
            cx.InterpolationConfig(q=np.array([0.2, 1.5]), tau=2, n=3)
        with pytest.raises(InvalidInputError):
            cx.InterpolationConfig(q=0.5, tau=np.array([1, 4]), n=3)
        with pytest.raises(InvalidInputError):
            cx.InterpolationConfig(q=np.array([0.2, np.nan]), tau=2, n=3)


class TestFullBatchInterpolation:
    def test_rejects_tiny_n(self):
        with pytest.raises(InvalidInputError):
            cx.full_batch_interpolation(_uniform(2, 1.0, 0.1))

    def test_regime_boundary_gap_matches_derivation(self):
        # the two regimes pick different q at 4 L_bar / mu = n - 1, so their
        # complexity coefficients differ by (4 L_max / mu) / ((n^2 - 1) omega)
        for n in (10, 100, 1000):
            mu = 4.0 / (n - 1)
            prof = _uniform(n, 1.0, mu)
            well = cx.full_batch_interpolation(prof)
            assert well.regime == "well"
            cond = 4.0 / mu
            omega_bad = n + cond * (1 - 1 / (cond + 1 - 1 / n))
            gap = abs(omega_bad - well.omega_coef)
            bound = cond / (n * n - 1)
            assert gap <= bound * (1 + 1e-9)
            assert gap >= bound * (1 - 1e-9)

    def test_always_beats_single_sample_baseline(self):
        for n in (10, 100, 1000):
            for cond in (n / 4, n - 1.0, 4.0 * n):
                for ratio in (0.5, 1.0):
                    mu = 4.0 / cond
                    prof = SmoothnessProfile.from_bounds(n, 1.0, ratio, mu)
                    fb = cx.full_batch_interpolation(prof)
                    assert fb.omega_coef <= n + 4.0 / mu + 1e-9

    def test_approaches_baseline_for_large_n(self):
        ratios = []
        for n in (10, 100, 1000, 10000):
            mu = 4.0 / (n - 1)
            prof = _uniform(n, 1.0, mu)
            fb = cx.full_batch_interpolation(prof)
            ratios.append(fb.omega_coef / (n + 4.0 / mu))
        assert all(r <= 1.0 for r in ratios)
        assert ratios[-1] > 0.999
        assert ratios == sorted(ratios)

    def test_matches_general_formula_at_its_q(self):
        for n in (10, 100, 1000):
            for cond in (n / 4, n - 1.0, 4.0 * n):
                for ratio in (0.5, 1.0):
                    mu = 4.0 / cond
                    prof = SmoothnessProfile.from_bounds(n, 1.0, ratio, mu)
                    fb = cx.full_batch_interpolation(prof)
                    mc = cx.total_complexity(cx.InterpolationConfig(q=fb.q, tau=n, n=n), prof)
                    assert abs(mc.omega_coef - fb.omega_coef) <= 1e-9 * fb.omega_coef
                    assert abs(mc.stepsize - fb.alpha) <= 1e-12 * fb.alpha
