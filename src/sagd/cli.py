"""Command-line interface: plan, run, sweep, verify.

Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 non-convergence.  All randomness flows from --seed, so re-running a
command with identical flags reproduces outputs byte for byte except the
wall-clock columns.  Reported wall time wraps the iteration loop only;
unlike dedicated benchmark setups it includes random-sampling time, which
is O(n) per minibatch step (the sampler allocates an index array of length
n each time).
"""

import argparse
import dataclasses
import json
import os
import statistics
import sys

import numpy as np

from . import __version__
from .complexity import InterpolationConfig, full_batch_interpolation, stepsize
from .data_io import (
    RunManifest,
    TrajectorySeries,
    emit_svg_plot,
    parse_libsvm,
    synth_gaussian,
    synth_uniform,
    write_results_csv,
)
from .exceptions import ConvergenceError, SagdError
from .planner import optimal_plan
from .problem import (
    LossSpec,
    SmoothnessProfile,
    exact_solution,
    normalize_rows,
    smoothness_profile,
)
from .solver import SolverConfig, run as run_solver
from .verification import run_all

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INVALID = 2
EXIT_NO_CONVERGENCE = 3


def _out_dir():
    return os.environ.get("SAGD_OUT_DIR", ".")


def _resolve_out(path):
    if path is None or os.path.isabs(path) or os.path.dirname(path):
        return path
    return os.path.join(_out_dir(), path)


def _add_dataset_args(p):
    src = p.add_mutually_exclusive_group()
    src.add_argument("--data", help="LIBSVM file to load")
    src.add_argument("--synth", metavar="N,D,DIST",
                     help="synthetic dataset, DIST in {gaussian, uniform}")
    p.add_argument("--loss", choices=("ridge", "logistic"), default="ridge")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="regularization weight (default 1/n)")
    p.add_argument("--normalize", action="store_true",
                   help="scale every sample to unit norm before solving")
    p.add_argument("--d-override", type=int, default=None,
                   help="force the feature dimension when parsing LIBSVM data")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sagd",
        description="solver and complexity planner for the SAGA/minibatch-SAGA interpolation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="compute the optimal (q, tau) for a problem")
    _add_dataset_args(p_plan)
    p_plan.add_argument("--n", type=int, help="explicit sample count (no dataset)")
    p_plan.add_argument("--l-max", type=float, help="explicit max smoothness")
    p_plan.add_argument("--l-bar", type=float, help="explicit mean smoothness")
    p_plan.add_argument("--mu", type=float, help="explicit strong convexity")
    p_plan.add_argument("--json", action="store_true")

    p_run = sub.add_parser("run", help="solve and record trajectories")
    _add_dataset_args(p_run)
    p_run.add_argument("--q", default="auto", help="interpolation probability or 'auto'")
    p_run.add_argument("--tau", default="auto", help="minibatch size or 'auto'")
    p_run.add_argument("--alpha", default="auto", help="stepsize or 'auto'")
    p_run.add_argument("--seed", default="0", help="comma-separated 64-bit seeds")
    p_run.add_argument("--tol", type=float, default=1e-10)
    p_run.add_argument("--max-passes", type=float, default=200.0)
    p_run.add_argument("--check-every", type=float, default=0.25,
                       help="effective passes between convergence checks")
    p_run.add_argument("--out", help="results CSV path")
    p_run.add_argument("--plot", help="SVG plot path (needs --out)")
    p_run.add_argument("--x-axis", choices=("effective_passes", "wall_seconds"),
                       default="effective_passes")
    p_run.add_argument("--json", action="store_true")

    p_sweep = sub.add_parser("sweep", help="compare minibatch sizes at fixed q")
    _add_dataset_args(p_sweep)
    p_sweep.add_argument("--q", default="auto")
    p_sweep.add_argument("--taus", required=True,
                         help="comma list and/or ranges, e.g. 1,2,4-12")
    p_sweep.add_argument("--seed", default="0")
    p_sweep.add_argument("--tol", type=float, default=1e-10)
    p_sweep.add_argument("--max-passes", type=float, default=500.0)
    p_sweep.add_argument("--check-every", type=float, default=0.25)
    p_sweep.add_argument("--out", help="per-tau summary CSV path")
    p_sweep.add_argument("--json", action="store_true")

    p_verify = sub.add_parser("verify", help="closed forms vs enumeration oracles")
    p_verify.add_argument("--n-max", type=int, default=8)
    p_verify.add_argument("--json", action="store_true")
    return parser


def _parse_seeds(text):
    try:
        seeds = [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise SagdError(f"bad seed list {text!r}") from None
    if not seeds:
        raise SagdError(f"empty seed list {text!r}")
    return seeds


def _parse_taus(text):
    taus = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            lo, hi = tok.split("-", 1) if "-" in tok[1:] else (tok, tok)
            taus.extend(range(int(lo), int(hi) + 1))
        except ValueError:
            raise SagdError(f"bad --taus entry {tok!r}") from None
    if not taus:
        raise SagdError(f"empty tau list {text!r}")
    return sorted(set(taus))


def _number(args, flag, kind):
    """The value of ``--flag`` converted by ``kind`` (int or float)."""
    text = getattr(args, flag)
    try:
        return kind(text)
    except ValueError:
        raise SagdError(f"bad --{flag} value {text!r}") from None


def _load_dataset(args):
    if args.data:
        data = parse_libsvm(args.data, d=args.d_override)
        dataset_id = os.path.basename(args.data)
    elif args.synth:
        try:
            n_str, d_str, dist = args.synth.split(",")
            n, d = int(n_str), int(d_str)
        except ValueError:
            raise SagdError(f"bad --synth spec {args.synth!r}") from None
        if dist == "gaussian":
            data = synth_gaussian(n, d, seed=_parse_seeds(getattr(args, "seed", "0"))[0])
        elif dist == "uniform":
            data = synth_uniform(n, d, seed=_parse_seeds(getattr(args, "seed", "0"))[0])
        else:
            raise SagdError(f"unknown synthetic distribution {dist!r}")
        if args.loss == "logistic":
            # synthetic labels are real draws; sign them to get valid classes
            data = dataclasses.replace(data, labels=np.where(data.labels >= 0.0, 1.0, -1.0))
        dataset_id = f"synth-{dist}-{n}x{d}"
    else:
        raise SagdError("need --data or --synth")
    if args.normalize:
        data = normalize_rows(data)
    lam = args.lam if args.lam is not None else 1.0 / data.n
    return data, LossSpec(args.loss, lam), dataset_id


def _candidate_row(c):
    return {
        "tau": c.tau,
        "kind": c.q_kind,
        "q": c.q,
        "omega_coef": c.omega_coef,
        "alpha": c.alpha,
        "covered": c.covered,
    }


def cmd_plan(args):
    explicit = [args.n, args.l_max, args.mu]
    if any(v is not None for v in explicit):
        if any(v is None for v in explicit):
            raise SagdError("explicit plans need --n, --l-max and --mu together")
        l_bar = args.l_bar if args.l_bar is not None else args.l_max
        profile = SmoothnessProfile.from_bounds(args.n, args.l_max, l_bar, args.mu)
        n = args.n
        source = "explicit"
    else:
        data, loss, dataset_id = _load_dataset(args)
        profile = smoothness_profile(data, loss)
        n = data.n
        source = dataset_id
    plan = optimal_plan(profile, n)
    closed = full_batch_interpolation(profile, n) if n >= 3 else None
    if args.json:
        payload = {
            "source": source,
            "n": n,
            "l_max": plan.l_max,
            "l_bar": plan.l_bar,
            "mu": plan.mu,
            "saga_omega": plan.saga_omega,
            "best": _candidate_row(plan.best),
            "candidates": [_candidate_row(c) for c in plan.all_candidates],
            "full_batch": None if closed is None else dataclasses.asdict(closed),
        }
        print(json.dumps(payload, sort_keys=True))
        return EXIT_OK
    print(f"profile: n={n} L_max={plan.l_max:.6g} L_bar={plan.l_bar:.6g} mu={plan.mu:.6g}")
    print(f"single-sample baseline omega: {plan.saga_omega:.6g}")
    if closed is not None:
        print(
            f"full-batch closed form ({closed.regime} conditioned): "
            f"q={closed.q:.6g} alpha={closed.alpha:.6g} omega={closed.omega_coef:.6g}"
        )
    print(f"{'tau':>6} {'kind':>14} {'q':>12} {'omega':>14} {'alpha':>12}")
    for c in sorted(plan.all_candidates, key=lambda c: (c.omega_coef, c.tau)):
        print(f"{c.tau:>6} {c.q_kind:>14} {c.q:>12.6g} {c.omega_coef:>14.6g} {c.alpha:>12.6g}")
    best = plan.best
    print(f"chosen: q*={best.q:.6g} tau*={best.tau} omega={best.omega_coef:.6g}")
    return EXIT_OK


def _resolve_plan(args, data, profile):
    q_auto = args.q == "auto"
    tau_auto = getattr(args, "tau", "auto") == "auto"
    if q_auto or tau_auto:
        plan = optimal_plan(profile, data.n)
        q = plan.best.q if q_auto else _number(args, "q", float)
        tau = plan.best.tau if tau_auto else _number(args, "tau", int)
        print(
            f"plan: q*={plan.best.q:.6g} tau*={plan.best.tau} "
            f"omega={plan.best.omega_coef:.6g} (baseline {plan.saga_omega:.6g})",
            file=sys.stderr if args.json else sys.stdout,  # --json: stdout is one document
        )
    else:
        q, tau = _number(args, "q", float), _number(args, "tau", int)
    return q, tau


def _reference_solution(data, loss, tol, profile):
    xstar_tol = min(1e-12, tol * 1e-2) if loss.kind == "logistic" else 1e-12
    return exact_solution(data, loss, tol=max(xstar_tol, 1e-14), profile=profile)


def _budget(args):
    """The command's tolerance and pass budget, checked before any work;
    q and tau are placeholders that every run replaces."""
    return SolverConfig(q=0.0, tau=1, tol=args.tol, max_effective_passes=args.max_passes,
                        check_every_passes=args.check_every)


def _solve(budget, data, loss, x_star, q, tau, alpha, seed):
    """One solver run under the command's tolerance and pass budget."""
    cfg = dataclasses.replace(budget, q=q, tau=tau, alpha=alpha, seed=seed)
    return run_solver(data, loss, cfg, x_star=x_star)


def cmd_run(args):
    budget = _budget(args)
    alpha = None if args.alpha == "auto" else _number(args, "alpha", float)
    seeds = _parse_seeds(args.seed)
    data, loss, dataset_id = _load_dataset(args)
    profile = smoothness_profile(data, loss)
    q, tau = _resolve_plan(args, data, profile)
    x_star = _reference_solution(data, loss, args.tol, profile)
    cfg0 = InterpolationConfig(q=q, tau=tau, n=data.n)
    resolved_alpha = alpha if alpha is not None else stepsize(cfg0, profile)

    series = []
    summaries = []
    all_converged = True
    for seed in seeds:
        result = _solve(budget, data, loss, x_star, q, tau, resolved_alpha, seed)
        all_converged &= result.converged
        passes = result.passes_to_tol(args.tol, data.n)
        wall = result.points[-1].wall_seconds
        summaries.append({"seed": seed, "converged": result.converged,
                          "diverged": result.diverged, "passes": passes, "wall_seconds": wall})
        series.append(TrajectorySeries("sagd", q, tau, seed, data.n, result.points))

    if args.out:
        out = _resolve_out(args.out)
        manifest = RunManifest.new(
            dataset_id, loss.kind, loss.lam, q, tau, resolved_alpha, seeds, f"sagd-{__version__}"
        )
        write_results_csv(series, out, manifest=manifest)
        if args.plot:
            emit_svg_plot(out, args.x_axis, _resolve_out(args.plot))
    elif args.plot:
        raise SagdError("--plot needs --out")

    if args.json:
        payload = {"dataset": dataset_id, "q": q, "tau": tau, "alpha": resolved_alpha,
                   "tol": args.tol, "runs": summaries}
        print(json.dumps(payload, sort_keys=True))
    else:
        for s in summaries:
            state = ("converged" if s["converged"]
                     else "DIVERGED" if s["diverged"] else "DID NOT CONVERGE")
            passes = "n/a" if s["passes"] is None else f"{s['passes']:.2f}"
            print(
                f"seed {s['seed']}: {state}, passes={passes}, "
                f"wall={s['wall_seconds']:.3f}s"
            )
    return EXIT_OK if all_converged else EXIT_NO_CONVERGENCE


def cmd_sweep(args):
    budget = _budget(args)
    taus = _parse_taus(args.taus)
    seeds = _parse_seeds(args.seed)
    data, loss, dataset_id = _load_dataset(args)
    profile = smoothness_profile(data, loss)
    plan = optimal_plan(profile, data.n)
    q = plan.best.q if args.q == "auto" else _number(args, "q", float)
    x_star = _reference_solution(data, loss, args.tol, profile)
    alphas = stepsize(InterpolationConfig(q=q, tau=np.array(taus), n=data.n), profile)

    rows = []
    all_converged = True
    for tau, alpha in zip(taus, alphas.tolist()):
        per_seed = []
        diverged = []
        for seed in seeds:
            result = _solve(budget, data, loss, x_star, q, tau, alpha, seed)
            all_converged &= result.converged
            passes = result.passes_to_tol(args.tol, data.n)
            per_seed.append(passes if passes is not None else float("inf"))
            if result.diverged:
                diverged.append(seed)
        rows.append({"tau": tau, "median_passes": statistics.median(per_seed),
                     "diverged": diverged})

    best_row = min(rows, key=lambda r: r["median_passes"])
    if args.out:
        out = _resolve_out(args.out)
        with open(out, "w", encoding="ascii") as fh:
            fh.write("tau,median_passes\n")
            for row in rows:
                fh.write(f"{row['tau']},{row['median_passes']:.17g}\n")
    if args.json:
        payload = {"dataset": dataset_id, "q": q, "rows": rows,
                   "best_tau_observed": best_row["tau"], "planner_tau": plan.best.tau}
        print(json.dumps(payload, sort_keys=True))
    else:
        for row in rows:
            seeds_note = ", ".join(map(str, row["diverged"]))
            print(f"tau={row['tau']:>5}  median passes={row['median_passes']:.2f}"
                  + (f"  DIVERGED (seeds {seeds_note})" if row["diverged"] else ""))
        print(f"best observed tau: {best_row['tau']}; planner tau*: {plan.best.tau}")
    return EXIT_OK if all_converged else EXIT_NO_CONVERGENCE


def cmd_verify(args):
    results = run_all(n_max=args.n_max)
    if args.json:
        print(json.dumps([dataclasses.asdict(r) for r in results], sort_keys=True))
    else:
        for r in results:
            print(r.summary())
            for failure in r.failures[:50]:
                print(f"  {failure}")
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY_FAIL


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    handlers = {"plan": cmd_plan, "run": cmd_run, "sweep": cmd_sweep, "verify": cmd_verify}
    try:
        return handlers[args.command](args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (SagdError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
