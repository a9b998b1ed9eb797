import functools
import hashlib
import math
import statistics
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sagd.complexity import InterpolationConfig, stepsize
from sagd.exceptions import InvalidInputError
from sagd.numerics import SeededRng
from sagd.problem import (
    Dataset,
    LossSpec,
    batch_gradient_fn,
    full_grad,
    gradient_fn,
    normalize_rows,
    exact_solution,
    smoothness_profile,
)
from reference_methods import reference_minibatch_saga, reference_saga
from sagd import solver
from sagd.solver import (
    GradientTable,
    SolverConfig,
    SolverState,
    init_table,
    lyapunov,
    run,
    sagd_step,
)


def _dataset(n, d, seed, normalize=False):
    rng = np.random.default_rng(seed)
    data = Dataset.from_dense(rng.standard_normal((n, d)), rng.standard_normal(n))
    return normalize_rows(data) if normalize else data


def _sparse_logistic(n, d, seed):
    """Unit-norm CSR rows with missing feature slots (so minibatch gradients
    are taken one sample at a time) and +-1 labels."""
    rng = np.random.default_rng(seed)
    mask = rng.uniform(size=(n, d)) < 0.4
    mask[np.arange(n), rng.integers(0, d, size=n)] = True  # no empty row
    a = rng.standard_normal((n, d))
    indptr = np.concatenate([[0], np.cumsum(mask.sum(axis=1))])
    labels = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
    return normalize_rows(Dataset(indptr, np.nonzero(mask)[1], a[mask], labels, d))


def _x_star(data, loss):
    return exact_solution(data, loss, smoothness_profile(data, loss))


def _solve(data, loss, x_star, q, tau, alpha=None, lyapunov_ref=None, **kw):
    """``run`` from a fresh table at ``alpha``, by default the theoretical stepsize."""
    if alpha is None:
        alpha = stepsize(InterpolationConfig(q, tau, data.n), smoothness_profile(data, loss))
    cfg = SolverConfig(q=q, tau=tau, alpha=alpha, **kw)
    table = init_table(data, loss, np.zeros(data.d))
    return run(data, loss, cfg, x_star, table, lyapunov_ref=lyapunov_ref)


def _lyapunov_ref(data, loss, x_star):
    """The reference ``run`` tracks the Lyapunov function with: the table at x* and L_max."""
    return init_table(data, loss, x_star).J, smoothness_profile(data, loss).L_max


def _digest(result):
    """sha256 over every checkpoint's (iter, grad_evals, error bits) and the final x bits."""
    h = hashlib.sha256()
    for p in result.points:
        h.update(struct.pack("<qqd", p.iter, p.grad_evals, p.error))
    h.update(result.x.tobytes())
    return h.hexdigest()


def _make_state(data, loss, cfg, x0=None):
    """A fresh state and a no-argument step that advances it, with the
    gradient kernels bound once as ``run`` binds them."""
    rng = SeededRng(cfg.seed)
    x0 = np.zeros(data.d) if x0 is None else x0
    state = SolverState(x=x0.copy(), table=init_table(data, loss, x0))
    grad, batch = gradient_fn(data, loss), batch_gradient_fn(data, loss)
    return state, functools.partial(sagd_step, state, cfg, rng, grad, batch)


class TestInitTable:
    def test_at_x0_single_sample(self):
        data = _dataset(1, 3, 1)
        loss = LossSpec("ridge", 0.2)
        x0 = np.ones(3)
        table = init_table(data, loss, x0)
        assert np.allclose(table.col_sum, full_grad(data, loss, x0) * 1, rtol=1e-15)

    def test_at_x0_column_mean_is_full_gradient(self):
        data = _dataset(9, 4, 2)
        loss = LossSpec("ridge", 0.05)
        x0 = np.arange(4.0)
        table = init_table(data, loss, x0)
        fg = full_grad(data, loss, x0)
        assert np.linalg.norm(table.col_sum / data.n - fg) <= 1e-12 * (1 + np.linalg.norm(fg))


class TestStepReductions:
    def test_full_batch_step_is_gradient_descent(self):
        data = _dataset(12, 4, 5)
        loss = LossSpec("ridge", 0.1)
        cfg = SolverConfig(q=1.0, tau=12, alpha=0.05, seed=7)
        state, step = _make_state(data, loss, cfg)
        x0 = state.x.copy()
        step()
        gd = x0 - 0.05 * full_grad(data, loss, x0)
        assert np.linalg.norm(state.x - gd) <= 1e-15 * (1 + np.linalg.norm(gd))

    def test_single_sample_reduction_exact(self):
        data = _dataset(10, 3, 6)
        loss = LossSpec("ridge", 0.2)
        alpha, seed, steps = 0.04, 11, 35  # crosses a refresh boundary
        cfg = SolverConfig(q=0.0, tau=1, alpha=alpha, seed=seed)
        state, step = _make_state(data, loss, cfg)
        ref = reference_saga(data, loss, np.zeros(3), alpha, seed, steps)
        for k in range(steps):
            step()
            assert np.array_equal(state.x, ref[k + 1]), f"diverged at step {k}"

    @pytest.mark.parametrize("tau", [2, 4])
    def test_minibatch_reduction_exact(self, tau):
        data = _dataset(9, 3, 7)
        loss = LossSpec("ridge", 0.15)
        alpha, seed, steps = 0.03, 13, 30
        cfg = SolverConfig(q=1.0, tau=tau, alpha=alpha, seed=seed)
        state, step = _make_state(data, loss, cfg)
        ref = reference_minibatch_saga(data, loss, np.zeros(3), alpha, seed, steps, tau)
        for k in range(steps):
            step()
            assert np.array_equal(state.x, ref[k + 1]), f"diverged at step {k}"

    def test_minibatch_reduction_exact_logistic(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((8, 3))
        y = np.where(rng.uniform(size=8) < 0.5, -1.0, 1.0)
        data = Dataset.from_dense(a, y)
        loss = LossSpec("logistic", 0.1)
        cfg = SolverConfig(q=1.0, tau=3, alpha=0.2, seed=3)
        state, step = _make_state(data, loss, cfg)
        ref = reference_minibatch_saga(data, loss, np.zeros(3), 0.2, 3, 20, 3)
        for k in range(20):
            step()
            assert np.array_equal(state.x, ref[k + 1])


class TestUnbiasedness:
    def test_direction_mean_equals_full_gradient(self):
        # probability-weighted enumeration over both branches and all picks
        from sagd.sketch_oracle import oracle_expected_direction

        rng = np.random.default_rng(9)
        for n in (2, 4, 6):
            data = Dataset.from_dense(rng.standard_normal((n, 3)), rng.standard_normal(n))
            loss = LossSpec("ridge", 0.1)
            x = rng.standard_normal(3)
            table = rng.standard_normal((3, n))
            fg = full_grad(data, loss, x)
            for tau in range(1, n + 1):
                for q in (0.0, 0.3, 0.7, 1.0):
                    mean = oracle_expected_direction(data, loss, x, table, q, tau)
                    assert np.linalg.norm(mean - fg) <= 1e-12 * (1 + np.linalg.norm(fg))


class TestBookkeeping:
    def test_expected_cost_per_step(self):
        data = _dataset(20, 2, 10)
        loss = LossSpec("ridge", 0.1)
        q, tau, steps = 0.35, 6, 100_000
        cfg = SolverConfig(q=q, tau=tau, alpha=0.01, seed=21)
        state, step = _make_state(data, loss, cfg)
        start = state.grad_evals
        for _ in range(steps):
            step()
        mean_cost = (state.grad_evals - start) / steps
        expect = q * (tau - 1) + 1
        sigma = math.sqrt(q * (1 - q)) * (tau - 1) / math.sqrt(steps)
        assert abs(mean_cost - expect) <= 3 * sigma

    def test_column_sum_drift_bounded(self):
        data = _dataset(15, 3, 11)
        loss = LossSpec("ridge", 0.05)
        cfg = SolverConfig(q=0.4, tau=3, alpha=0.02, seed=22)
        state, step = _make_state(data, loss, cfg)
        for _ in range(100_000):
            step()
        drift = np.linalg.norm(state.table.col_sum - state.table.J.sum(axis=1))
        assert drift <= 1e-8 * (1 + np.linalg.norm(state.table.col_sum))

    def test_same_seed_bitwise_identical(self):
        data = _dataset(30, 4, 12)
        loss = LossSpec("ridge", 0.1)
        x_star = _x_star(data, loss)
        kw = dict(q=0.5, tau=4, seed=77, tol=1e-8, max_effective_passes=30)
        r1, r2 = (_solve(data, loss, x_star, **kw) for _ in range(2))
        assert np.array_equal(r1.x, r2.x)
        assert [p.error for p in r1.points] == [p.error for p in r2.points]
        assert [p.grad_evals for p in r1.points] == [p.grad_evals for p in r2.points]

    # taken when run still resolved the theoretical stepsize and filled the table itself
    @pytest.mark.parametrize("case,digest", [
        ("ridge", "ee83926b37e42552f97e26eba0d59d9192a7be7b7db5ed712e0b018fd4b18873"),
        ("sparse-logistic", "7cc918b63e7ce06766a23215042cd3da10f0463c0cf0498ff4a52bedb095d8a8"),
    ])
    def test_theoretical_stepsize_runs_pinned(self, case, digest):
        if case == "ridge":
            data, loss, tau, seed = _dataset(30, 4, 12), LossSpec("ridge", 0.1), 4, 77
            x_star = _x_star(data, loss)
        else:
            data, loss, tau, seed = _sparse_logistic(40, 6, 23), LossSpec("logistic", 0.05), 3, 5
            assert batch_gradient_fn(data, loss) is None
            x_star = _x_star(data, loss)
        result = _solve(data, loss, x_star, 0.5, tau, seed=seed, tol=1e-8, max_effective_passes=30)
        assert _digest(result) == digest

    def test_given_table_taken_over(self):
        data = _dataset(30, 4, 12)
        loss = LossSpec("ridge", 0.1)
        cfg = SolverConfig(q=0.5, tau=4, alpha=0.05, seed=77, tol=1e-8, max_effective_passes=30)
        table = init_table(data, loss, np.zeros(4))
        fill = table.J.copy()
        result = run(data, loss, cfg, _x_star(data, loss), table)
        assert result.points[0].grad_evals == data.n  # the fill is counted
        assert not np.array_equal(table.J, fill)  # the run wrote into the table


class TestLyapunov:
    def test_zero_at_fixed_point(self):
        data = _dataset(7, 3, 13)
        loss = LossSpec("ridge", 0.1)
        x_star = _x_star(data, loss)
        g_star = init_table(data, loss, x_star).J
        table = GradientTable(J=g_star.copy(), col_sum=g_star.sum(axis=1))
        state = SolverState(x=x_star.copy(), table=table)
        cfg = SolverConfig(q=0.0, tau=1, alpha=0.1)  # theta = n = 7
        assert lyapunov(state, cfg, x_star, g_star, l_max=1.5) == 0.0

    def test_table_at_optimum_reduces_to_distance(self):
        data = _dataset(5, 2, 14)
        loss = LossSpec("ridge", 0.1)
        x_star = np.zeros(2)
        g_star = init_table(data, loss, x_star).J
        table = GradientTable(J=g_star.copy(), col_sum=g_star.sum(axis=1))
        state = SolverState(x=np.array([3.0, 4.0]), table=table)
        cfg = SolverConfig(q=0.0, tau=1, alpha=0.1)
        assert lyapunov(state, cfg, x_star, g_star, l_max=1.0) == 25.0

    # taken with SolverConfig(track_lyapunov=True), when run derived the reference itself
    @pytest.mark.parametrize("kind,digest", [
        ("ridge", "34812db530c05edfb348a009a8b8477aa0219525e555d7cdd40edb2b5afe7e98"),
        ("logistic", "933ac455fb7e071c7e9eb3599fe43454b12d332e9fe513df25f7faed47d84c43"),
    ])
    def test_tracked_runs_pinned(self, kind, digest):
        if kind == "ridge":
            data, loss = _dataset(30, 4, 12), LossSpec("ridge", 0.1)
        else:
            base = _dataset(40, 5, 24, normalize=True)
            labels = np.where(base.labels < 0.0, -1.0, 1.0)
            data = Dataset(base.indptr, base.indices, base.values, labels, base.d)
            loss = LossSpec("logistic", 0.05)
        x_star = _x_star(data, loss)
        ref = _lyapunov_ref(data, loss, x_star)
        h = hashlib.sha256()
        for q in (0.0, 0.5, 1.0):
            for seed in (1, 2):
                result = _solve(data, loss, x_star, q, 4, lyapunov_ref=ref, seed=seed, tol=1e-8,
                                max_effective_passes=30)
                for p in result.points:
                    h.update(struct.pack("<qqdd", p.iter, p.grad_evals, p.error, p.lyapunov))
        assert h.hexdigest() == digest

    def test_run_with_reference_derives_nothing(self, monkeypatch):
        # the caller's reference is the only source of L_max and the table at x*
        data, loss = _dataset(30, 4, 12), LossSpec("ridge", 0.1)
        x_star = _x_star(data, loss)
        cfg = SolverConfig(q=0.5, tau=4, alpha=0.05, seed=1, tol=1e-8, max_effective_passes=5)
        table, ref = init_table(data, loss, np.zeros(4)), _lyapunov_ref(data, loss, x_star)
        calls = []
        for name in ("smoothness_profile", "gradient_sum_fn"):
            monkeypatch.setattr(solver, name, lambda *args, name=name: calls.append(name))
        result = run(data, loss, cfg, x_star, table, lyapunov_ref=ref)
        assert calls == []
        assert all(p.lyapunov is not None for p in result.points)

    @pytest.mark.parametrize("shape", [(4, 1), (4, 31), (30, 4)])
    def test_misshaped_reference_table_rejected(self, shape):
        # a (d, 1) table would broadcast against the (d, n) one silently
        data = _dataset(30, 4, 12)
        with pytest.raises(InvalidInputError) as err:
            _solve(data, LossSpec("ridge", 0.1), np.zeros(4), 0.5, 4, alpha=0.05,
                   lyapunov_ref=(np.zeros(shape), 1.0))
        assert str(err.value) == f"reference table shape {shape} is not (4, 30)"

    def test_full_batch_coefficient_identity(self):
        # theta alpha / (2 n L_max) equals alpha / (2 L_max (q (n-1) + 1))
        n, q, alpha, l_max = 8, 0.3, 0.05, 1.4
        theta = n / (q * (n - 1) + 1)
        coef_general = theta * alpha / (2 * n * l_max)
        coef_direct = alpha / (2 * l_max * (q * (n - 1) + 1))
        assert abs(coef_general - coef_direct) <= 1e-15


class TestRun:
    def test_single_sample_baseline_converges_monotonically(self):
        data = normalize_rows(_dataset(100, 5, 15))
        loss = LossSpec("ridge", 1.0 / 100)
        x_star = _x_star(data, loss)
        result = _solve(data, loss, x_star, 0.0, 1, seed=5, tol=1e-10, max_effective_passes=400)
        assert result.converged
        errors = [p.error for p in result.points]
        assert errors[-1] <= 1e-10
        assert all(e >= 0.0 for e in errors)
        evals = [p.grad_evals for p in result.points]
        assert evals == sorted(evals)
        # recorded checkpoints decrease up to small stochastic wiggle
        increases = sum(1 for a, b in zip(errors, errors[1:]) if b > a * 1.5)
        assert increases <= len(errors) // 10

    def test_full_batch_run_matches_gradient_descent(self):
        data = _dataset(16, 3, 16)
        loss = LossSpec("ridge", 0.1)
        prof = smoothness_profile(data, loss)
        alpha = stepsize(InterpolationConfig(1.0, 16, 16), prof)
        x_star = exact_solution(data, loss, prof)
        result = _solve(
            data, loss, x_star, 1.0, 16, alpha=alpha, seed=0, tol=1e-12,
            max_effective_passes=2000, check_every_passes=16.0 / 16,
        )
        x = np.zeros(3)
        for _ in range(result.points[-1].iter):
            x = x - alpha * full_grad(data, loss, x)
        assert np.linalg.norm(result.x - x) <= 1e-10 * (1 + np.linalg.norm(x))

    def test_budget_exhaustion_flagged(self):
        data = _dataset(50, 4, 17)
        loss = LossSpec("ridge", 0.02)
        x_star = _x_star(data, loss)
        result = _solve(data, loss, x_star, 0.0, 1, seed=1, tol=1e-14, max_effective_passes=2.0)
        assert not result.converged
        assert result.points[-1].grad_evals <= 2.0 * 50 + 50
        assert result.passes_to_tol(1e-14, 50) is None

    def test_divergent_run_stops_at_first_non_finite_checkpoint(self):
        data = _dataset(500, 10, 19, normalize=True)
        loss = LossSpec("ridge", 0.1)
        x_star = _x_star(data, loss)
        result = _solve(data, loss, x_star, 0.0, 1, alpha=50.0, seed=1, max_effective_passes=50.0)
        errors = [p.error for p in result.points]
        assert result.diverged and not result.converged
        assert not math.isfinite(errors[-1])
        assert all(math.isfinite(e) for e in errors[:-1])  # stopped at the first one
        assert result.points[-1].grad_evals < 50.0 * data.n / 10

    def test_overflowing_iterate_stops_at_its_checkpoint_without_warning(self):
        # 50 passes between checkpoints: the iterate itself overflows to NaN, and
        # neither the update nor the norm nor the Lyapunov function may warn
        data = _dataset(300, 10, 19, normalize=True)
        loss = LossSpec("ridge", 0.1)
        x_star = _x_star(data, loss)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = _solve(data, loss, x_star, 0.0, 1, alpha=10.0, seed=1,
                            lyapunov_ref=_lyapunov_ref(data, loss, x_star),
                            max_effective_passes=500.0, check_every_passes=50.0)
        assert not np.isfinite(result.x).all()
        assert [math.isfinite(p.error) for p in result.points] == [True, False]
        assert result.diverged and not result.converged
        assert result.points[-1].grad_evals == 300 + 50 * 300  # the table fill, then one spacing

    def test_converging_run_not_flagged_diverged(self):
        data = _dataset(40, 3, 18)
        loss = LossSpec("ridge", 0.1)
        result = _solve(data, loss, _x_star(data, loss), 0.0, 1, seed=2, tol=1e-6)
        assert result.converged and not result.diverged

    @pytest.mark.parametrize("x_star", [None, np.zeros(4), np.zeros((3, 1)), np.zeros(2)])
    def test_missing_or_misshaped_reference_rejected(self, x_star):
        data = _dataset(40, 3, 18)
        with pytest.raises(InvalidInputError, match=r"x_star must have shape \(3,\)"):
            _solve(data, LossSpec("ridge", 0.1), x_star, 0.0, 1, alpha=0.1, seed=2, tol=1e-6)

    def test_contraction_envelope_median(self):
        # median over seeds of the tracked distance measure stays under
        # twice the geometric envelope (1 - mu alpha)^k
        data = normalize_rows(_dataset(60, 4, 19))
        loss = LossSpec("ridge", 1.0 / 60)
        prof = smoothness_profile(data, loss)
        x_star = exact_solution(data, loss, prof)
        icfg = InterpolationConfig(0.5, 4, 60)
        alpha = stepsize(icfg, prof)
        ref = _lyapunov_ref(data, loss, x_star)
        series = []
        for seed in range(10):
            result = _solve(
                data, loss, x_star, 0.5, 4, alpha=alpha, lyapunov_ref=ref, seed=seed, tol=1e-8,
                max_effective_passes=200,
            )
            series.append({p.iter: p.lyapunov for p in result.points})
        iters = sorted(set.intersection(*[set(s) for s in series]))
        psi0 = series[0][0]
        rate = 1.0 - prof.mu * alpha
        for k in iters:
            med = statistics.median(s[k] for s in series)
            assert med <= 2.0 * (rate ** k) * psi0 * (1 + 1e-9), f"iter {k}"

    def test_alpha_required(self):
        with pytest.raises(InvalidInputError, match="alpha must be finite and positive, got None"):
            SolverConfig(q=0.5, tau=2, alpha=None)

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("q", None, "q must be in [0, 1], got None"),
            ("q", "0.5", "q must be in [0, 1], got 0.5"),
            ("tau", 2.5, "tau must be an integer >= 1, got 2.5"),
            ("tau", 2.0, "tau must be an integer >= 1, got 2.0"),
            ("tau", None, "tau must be an integer >= 1, got None"),
            ("tol", None, "tol must be finite and positive, got None"),
            ("max_effective_passes", None, "max_effective_passes must be finite and positive"),
            ("check_every_passes", None, "check_every_passes must be finite and positive"),
        ],
    )
    def test_wrong_type_rejected_as_invalid_input(self, field, value, message):
        # before, these raised a bare TypeError, or (a float tau) passed and
        # failed in the first minibatch step
        with pytest.raises(InvalidInputError) as info:
            SolverConfig(**{"q": 0.5, "tau": 2, "alpha": 0.1, field: value})
        assert str(info.value).startswith(message)

    def test_numpy_integer_tau_accepted(self):
        data = _dataset(8, 3, 21)
        loss = LossSpec("ridge", 0.1)
        x_star = _x_star(data, loss)
        runs = [_solve(data, loss, x_star, 0.5, tau, alpha=0.05, seed=3) for tau in (3, np.int64(3))]
        assert _digest(runs[0]) == _digest(runs[1])

    def test_zero_alpha_rejected(self):
        with pytest.raises(InvalidInputError):
            SolverConfig(q=0.0, tau=1, alpha=0.0)

    @pytest.mark.parametrize("alpha", [math.inf, math.nan, -1.0])
    def test_alpha_must_be_finite_and_positive(self, alpha):
        with pytest.raises(InvalidInputError, match="alpha must be finite and positive"):
            SolverConfig(q=0.0, tau=1, alpha=alpha)

    def test_tau_exceeding_n_rejected(self):
        data = _dataset(5, 2, 20)
        with pytest.raises(InvalidInputError, match=r"^need 1 <= tau <= n, got tau=6, n=5$"):
            _solve(data, LossSpec("ridge", 0.1), np.zeros(2), 0.5, 6, alpha=0.1)

    @pytest.mark.parametrize(
        "j_shape,sum_shape", [((2, 4), (2,)), ((5, 2), (2,)), ((2, 5), (5,)), ((2, 5), (2, 1))]
    )
    def test_misshaped_table_rejected(self, j_shape, sum_shape):
        data = _dataset(5, 2, 20)
        table = GradientTable(J=np.zeros(j_shape), col_sum=np.zeros(sum_shape))
        cfg = SolverConfig(q=0.5, tau=2, alpha=0.1)
        with pytest.raises(InvalidInputError) as err:
            run(data, LossSpec("ridge", 0.1), cfg, np.zeros(2), table=table)
        assert str(err.value) == f"table shapes {(j_shape, sum_shape)} are not ((2, 5), (2,))"

    def test_logistic_pipeline_with_planned_parameters(self):
        rng = np.random.default_rng(5)
        base = _dataset(300, 6, 42)
        labels = np.where(rng.uniform(size=300) < 0.5, -1.0, 1.0)
        data = normalize_rows(Dataset(base.indptr, base.indices, base.values, labels, d=6))
        loss = LossSpec("logistic", 10.0 / 300)
        prof = smoothness_profile(data, loss)
        from sagd.planner import optimal_plan

        plan = optimal_plan(prof)
        assert plan.best.omega_coef <= plan.saga_omega
        x_star = exact_solution(data, loss, prof, tol=1e-12)
        result = _solve(
            data, loss, x_star, plan.best.q, plan.best.tau, seed=1, tol=1e-9,
            max_effective_passes=500,
        )
        assert result.converged

    def test_logistic_labels_validated_even_with_explicit_alpha(self):
        data = _dataset(6, 2, 21)  # real-valued labels, not +-1
        cfg = SolverConfig(q=0.0, tau=1, alpha=0.05, tol=1e-4, max_effective_passes=2)
        table = GradientTable(J=np.zeros((2, 6)), col_sum=np.zeros(2))
        with pytest.raises(InvalidInputError):
            run(data, LossSpec("logistic", 0.1), cfg, np.zeros(2), table)


class TestNonFiniteIterateGivesNonFiniteError:
    """Why ``run`` tests only the error: against a finite x*, any inf or NaN
    in x makes ||x - x*|| non-finite (squares cannot cancel an inf)."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=8),
        st.data(),
    )
    def test_norm_not_finite(self, x_star, data):
        x_star = np.array(x_star)
        x = np.array(data.draw(st.lists(st.floats(allow_nan=True, allow_infinity=True),
                                        min_size=x_star.size, max_size=x_star.size)))
        at = data.draw(st.integers(0, x_star.size - 1))
        x[at] = data.draw(st.sampled_from([np.inf, -np.inf, np.nan]))
        with np.errstate(over="ignore", invalid="ignore"):
            assert not math.isfinite(float(np.linalg.norm(x - x_star)))
