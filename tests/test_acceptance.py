"""Acceptance gate: one test per shipping criterion, each printing a
PASS/FAIL line (failures surface as ordinary assertion errors)."""

import os
import statistics
import time

import numpy as np
import pytest

from reference_methods import reference_minibatch_saga, reference_saga
from sagd import cli
from sagd.complexity import (
    InterpolationConfig,
    full_batch_interpolation,
    stepsize,
    total_complexity,
)
from sagd.data_io import parse_libsvm, read_results_csv, synth_gaussian, write_libsvm
from sagd.numerics import SeededRng
from sagd.planner import KIND_SAGA_BASELINE, optimal_plan
from sagd.problem import (
    Dataset,
    LossSpec,
    SmoothnessProfile,
    batch_gradient_fn,
    exact_solution,
    full_grad,
    gradient_fn,
    normalize_rows,
    smoothness_profile,
)
from sagd.sketch_oracle import oracle_expected_direction
from sagd.solver import SolverConfig, init_table, run
from sagd.verification import check_constants_against_oracles, check_envelope_shapes


def _report(num, text):
    print(f"PASS criterion {num}: {text}")


# ---------------------------------------------------------------------------
# shared desk-scale instance: synthetic Gaussian ridge, n=1000, d=10,
# lambda = 1/n, normalized rows
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def desk_instance():
    data = normalize_rows(synth_gaussian(1000, 10, seed=20240810))
    loss = LossSpec("ridge", 1.0 / data.n)
    profile = smoothness_profile(data, loss)
    x_star = exact_solution(data, loss)
    plan = optimal_plan(profile)
    return {"data": data, "loss": loss, "profile": profile, "x_star": x_star, "plan": plan}


def _median_passes(inst, q, tau, seeds, tol=1e-10, track=False):
    data, loss = inst["data"], inst["loss"]
    alpha = stepsize(InterpolationConfig(q, tau, data.n), inst["profile"])
    passes, results = [], []
    for seed in seeds:
        cfg = SolverConfig(
            q=q, tau=tau, alpha=alpha, seed=seed, tol=tol, max_effective_passes=500,
            check_every_passes=0.25, track_lyapunov=track,
        )
        table = init_table(data, loss, np.zeros(data.d))
        result = run(data, loss, cfg, x_star=inst["x_star"], table=table)
        assert result.converged, f"(q={q}, tau={tau}, seed={seed}) did not converge"
        passes.append(result.passes_to_tol(tol, data.n))
        results.append(result)
    return statistics.median(passes), results


def test_criterion_1_constants_match_enumeration_oracles():
    result = check_constants_against_oracles(n_max=8)
    assert result.passed, result.failures[:10]
    assert result.elapsed < 10.0, f"took {result.elapsed:.1f}s"
    _report(1, f"closed forms match oracles ({result.checks} grid points, "
               f"{result.elapsed:.1f}s)")


def test_criterion_2_update_direction_unbiased():
    rng = np.random.default_rng(2024)
    for n in (2, 3, 4, 5, 6):
        data = Dataset.from_dense(rng.standard_normal((n, 3)), rng.standard_normal(n))
        loss = LossSpec("ridge", 0.1)
        x = rng.standard_normal(3)
        table = rng.standard_normal((3, n))
        fg = full_grad(data, loss, x)
        for tau in range(1, n + 1):
            for q in (0.0, 0.3, 0.7, 1.0):
                mean = oracle_expected_direction(data, loss, x, table, q, tau)
                gap = np.linalg.norm(mean - fg)
                assert gap <= 1e-12 * (1 + np.linalg.norm(fg)), (n, tau, q, gap)
    _report(2, "enumerated update direction equals the full gradient")


def test_criterion_3_reduction_identities():
    rng = np.random.default_rng(3)
    data = Dataset.from_dense(rng.standard_normal((10, 4)), rng.standard_normal(10))
    loss = LossSpec("ridge", 0.1)
    from sagd.solver import SolverState, sagd_step

    grad, batch = gradient_fn(data, loss), batch_gradient_fn(data, loss)

    def fresh_state(seed):
        return SolverState(x=np.zeros(4), table=init_table(data, loss, np.zeros(4))), SeededRng(seed)

    # full-batch step vs gradient descent step
    state, step_rng = fresh_state(1)
    cfg = SolverConfig(q=1.0, tau=10, alpha=0.05, seed=1)
    sagd_step(state, cfg, step_rng, grad, batch)
    gd = -0.05 * full_grad(data, loss, np.zeros(4))
    assert np.linalg.norm(state.x - gd) <= 1e-15 * (1 + np.linalg.norm(gd))

    # q = 0 vs reference single-sample method, exact under the shared seed
    state, step_rng = fresh_state(2)
    ref = reference_saga(data, loss, np.zeros(4), 0.04, 2, 40)
    cfg = SolverConfig(q=0.0, tau=1, alpha=0.04, seed=2)
    for k in range(40):
        sagd_step(state, cfg, step_rng, grad, batch)
        assert np.array_equal(state.x, ref[k + 1]), f"single-sample diverged at {k}"

    # q = 1 vs reference minibatch method, exact under the shared seed
    state, step_rng = fresh_state(4)
    ref = reference_minibatch_saga(data, loss, np.zeros(4), 0.03, 4, 40, 3)
    cfg = SolverConfig(q=1.0, tau=3, alpha=0.03, seed=4)
    for k in range(40):
        sagd_step(state, cfg, step_rng, grad, batch)
        assert np.array_equal(state.x, ref[k + 1]), f"minibatch diverged at {k}"
    _report(3, "full-batch/GD, single-sample and minibatch reductions are exact")


def test_criterion_4_full_batch_closed_forms():
    for n in (10, 100, 1000):
        for cond in (n / 4, float(n - 1), 4.0 * n):  # 4 L_max / mu
            for ratio in (0.5, 1.0):  # L_bar / L_max
                mu = 4.0 / cond
                profile = SmoothnessProfile.from_bounds(n, 1.0, ratio, mu)
                fb = full_batch_interpolation(profile)
                mc = total_complexity(InterpolationConfig(q=fb.q, tau=n, n=n), profile)
                rel = abs(mc.omega_coef - fb.omega_coef) / fb.omega_coef
                assert rel <= 1e-9, (n, cond, ratio, fb.regime, rel)
                assert fb.omega_coef <= n + 4.0 / mu + 1e-9 * (n + 4.0 / mu)
    _report(4, "closed-form full-batch complexities match the general formula "
               "and beat the single-sample baseline")


def test_criterion_5_envelope_shape_grids():
    result = check_envelope_shapes(n_values=(10, 100, 1000))
    assert result.passed, result.failures[:10]
    _report(5, f"envelope monotonicity/concavity, branch roots and "
               f"intersections verified ({result.checks} cases)")


def test_criterion_6_desk_scale_reproduction(desk_instance):
    start = time.perf_counter()
    inst = desk_instance
    plan = inst["plan"]
    q_star, tau_star = plan.best.q, plan.best.tau
    assert plan.best.omega_coef <= plan.saga_omega  # (a)

    seeds = list(range(1, 11))
    saga_med, _ = _median_passes(inst, 0.0, 1, seeds)
    star_med, _ = _median_passes(inst, q_star, tau_star, seeds)
    double_med, _ = _median_passes(inst, q_star, min(2 * tau_star, inst["data"].n), seeds)
    elapsed = time.perf_counter() - start
    assert star_med <= 1.1 * saga_med, (star_med, saga_med)  # (b)
    assert double_med > star_med, (double_med, star_med)  # (c)
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _report(6, f"q*={q_star:.3g}, tau*={tau_star}: passes {star_med:.1f} vs "
               f"baseline {saga_med:.1f} vs doubled-batch {double_med:.1f} "
               f"({elapsed:.0f}s)")


def test_criterion_7_tau_sensitivity(desk_instance):
    inst = desk_instance
    plan = inst["plan"]
    q_star, tau_star = plan.best.q, plan.best.tau
    seeds = [11, 12, 13, 14, 15]
    medians = {}
    for tau in range(1, min(4 * tau_star, inst["data"].n) + 1):
        medians[tau], _ = _median_passes(inst, q_star, tau, seeds)
    best = min(medians.values())
    assert medians[tau_star] <= 1.1 * best, (tau_star, medians[tau_star], best)
    _report(7, f"passes at tau*={tau_star} ({medians[tau_star]:.1f}) within 10% "
               f"of the sweep minimum ({best:.1f})")


def test_criterion_8_contraction_envelope(desk_instance):
    inst = desk_instance
    plan = inst["plan"]
    q_star, tau_star = plan.best.q, plan.best.tau
    profile = inst["profile"]
    alpha = stepsize(InterpolationConfig(q_star, tau_star, inst["data"].n), profile)
    rate = 1.0 - profile.mu * alpha
    _, results = _median_passes(
        inst, q_star, tau_star, seeds=range(21, 41), tol=1e-8, track=True
    )
    common = set.intersection(*[{p.iter for p in r.points} for r in results])
    psi = {k: [] for k in sorted(common)}
    for r in results:
        for p in r.points:
            if p.iter in psi:
                psi[p.iter].append(p.lyapunov)
    psi0 = psi[0][0]
    assert all(abs(v - psi0) <= 1e-9 * psi0 for v in psi[0])  # same start point
    for k, values in psi.items():
        med = statistics.median(values)
        bound = 2.0 * (rate ** k) * psi0
        assert med <= bound * (1 + 1e-9), (k, med, bound)
    _report(8, f"median contraction stayed under 2 (1 - mu alpha)^k over "
               f"{len(psi)} checkpoints, 20 seeds")


def test_criterion_9_nontrivial_interpolation_exists():
    n = 500
    mu = 4.0 / 750.0  # 4 L_bar / mu = 750, between n/2 and 2n
    profile = SmoothnessProfile.uniform(n, 1.0, mu)
    assert n / 2 <= 4 * profile.L_bar / profile.mu <= 2 * n
    plan = optimal_plan(profile)
    assert plan.best.q != 0.0
    assert plan.best.q_kind != KIND_SAGA_BASELINE
    assert plan.best.omega_coef < plan.saga_omega
    _report(9, f"q*={plan.best.q:.4g} (tau*={plan.best.tau}) strictly beats the "
               f"single-sample baseline {plan.saga_omega:.4g}")


def _libsvm_file(name):
    root = os.environ.get("SAGD_LIBSVM_DIR", os.path.join(os.path.dirname(__file__), "data"))
    path = os.path.join(root, name)
    return path if os.path.exists(path) else None


@pytest.mark.parametrize("name,lo,hi", [("a9a", 0.45, 0.65), ("australian", 0.43, 0.63)])
def test_criterion_10_libsvm_plans_optional(name, lo, hi):
    path = _libsvm_file(name)
    if path is None:
        pytest.skip(f"{name} not present (non-gating; place it under tests/data "
                    "or set SAGD_LIBSVM_DIR)")
    data = normalize_rows(parse_libsvm(path))
    loss = LossSpec("ridge", 10.0 / data.n)
    plan = optimal_plan(smoothness_profile(data, loss))
    assert lo <= plan.best.q <= hi, plan.best
    _report(10, f"{name}: q*={plan.best.q:.3f} in [{lo}, {hi}]")


def test_criterion_11_interfaces(tmp_path, capsys):
    # LIBSVM round trip
    data = synth_gaussian(12, 5, seed=7)
    path = tmp_path / "round.svm"
    write_libsvm(data, path)
    back = parse_libsvm(path)
    assert np.array_equal(back.indptr, data.indptr)
    assert np.array_equal(back.values, data.values)
    assert np.array_equal(back.labels, data.labels)

    # CSV schema stability through the CLI
    out_csv = tmp_path / "res.csv"
    code = cli.main([
        "run", "--synth", "100,4,gaussian", "--normalize", "--q", "0", "--tau", "1",
        "--seed", "1", "--tol", "1e-8", "--max-passes", "300", "--out", str(out_csv),
    ])
    assert code == 0
    header = out_csv.read_text().splitlines()[0]
    assert header == ("method,q,tau,seed,iter,grad_evals,effective_passes,"
                      "wall_seconds,error,lyapunov")
    assert read_results_csv(out_csv)[-1]["error"] <= 1e-8

    # verify subcommand exits 0 on the default grid
    assert cli.main(["verify"]) == 0
    capsys.readouterr()
    _report(11, "LIBSVM round trip, stable CSV schema, verify exits 0")
