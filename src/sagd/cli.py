"""Command-line interface: plan, run, sweep, verify.

Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 non-convergence.  All randomness flows from --seed, so re-running a
command with identical flags reproduces outputs byte for byte except the
wall-clock columns.  Reported wall time wraps the iteration loop only;
unlike dedicated benchmark setups it includes random-sampling time, which
is O(tau) per minibatch step.
"""

import argparse
import dataclasses
import functools
import itertools
import json
import os
import statistics
import sys

import numpy as np

from .complexity import InterpolationConfig, full_batch_interpolation, stepsize
from .data_io import (
    X_AXES,
    RunManifest,
    TrajectorySeries,
    emit_svg_plot,
    parse_libsvm,
    synth_gaussian,
    synth_uniform,
    write_results_csv,
)
from .exceptions import ConvergenceError, SagdError
from .planner import optimal_plan, plan_q, plan_tau
from .problem import (
    LossSpec,
    SmoothnessProfile,
    exact_solution,
    normalize_rows,
    smoothness_profile,
)
from . import solver
from .solver import SolverConfig, run as run_solver
from .verification import run_all

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INVALID = 2
EXIT_NO_CONVERGENCE = 3


def _resolve_out(path):
    if path is None or os.path.isabs(path) or os.path.dirname(path):
        return path
    return os.path.join(os.environ.get("SAGD_OUT_DIR", "."), path)


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


_SEED_HELP = ("comma-separated 64-bit seeds; --synth data is drawn from the first listed seed "
              "(so '2,1' and '2' solve one dataset, '1,2' another; plan --synth uses seed 0)")


def _add_solve_args(p, max_passes, out_help):
    p.add_argument("--q", default="auto", help="interpolation probability or 'auto'")
    p.add_argument("--seed", default="0", help=_SEED_HELP)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-passes", type=float, default=max_passes)
    p.add_argument("--check-every", type=float, default=0.25,
                   help="effective passes between convergence checks")
    p.add_argument("--out", help=out_help)
    p.add_argument("--json", action="store_true")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sagd",
        description="solver and complexity planner for the SAGA/minibatch-SAGA interpolation",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add = functools.partial(sub.add_parser, allow_abbrev=False)  # flags are spelled in full

    p_plan = add("plan", help="compute the optimal (q, tau) for a problem")
    _add_dataset_args(p_plan)
    p_plan.add_argument("--n", type=int, help="explicit sample count (no dataset)")
    p_plan.add_argument("--l-max", type=float, help="explicit max smoothness")
    p_plan.add_argument("--l-bar", type=float, help="explicit mean smoothness")
    p_plan.add_argument("--mu", type=float, help="explicit strong convexity")
    p_plan.add_argument("--json", action="store_true")

    p_run = add("run", help="solve and record trajectories")
    _add_dataset_args(p_run)
    _add_solve_args(p_run, max_passes=200.0, out_help="results CSV path")
    p_run.add_argument("--tau", default="auto", help="minibatch size or 'auto'")
    p_run.add_argument("--alpha", default="auto", help="stepsize or 'auto'")
    p_run.add_argument("--plot", help="SVG plot path (needs --out)")
    p_run.add_argument("--x-axis", choices=X_AXES, default="effective_passes")

    p_sweep = add("sweep", help="compare minibatch sizes at fixed q")
    _add_dataset_args(p_sweep)
    _add_solve_args(p_sweep, max_passes=500.0, out_help="per-tau summary CSV path")
    p_sweep.add_argument("--taus", required=True,
                         help="comma list and/or ranges, e.g. 1,2,4-12")
    p_sweep.set_defaults(tau="auto", alpha="auto", plot=None)  # run's, with no flags

    p_verify = add("verify", help="closed forms vs enumeration oracles")
    p_verify.add_argument("--n-max", type=int, default=8)
    p_verify.add_argument("--json", action="store_true")
    return parser


@functools.cache
def _parser():
    """The parser, built on the first command and kept for the process."""
    return build_parser()


def _parse_seeds(text):
    try:
        seeds = [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise SagdError(f"bad seed list {text!r}") from None
    if not seeds:
        raise SagdError(f"empty seed list {text!r}")
    seen = set()
    for seed in seeds:
        if not 0 <= seed < 2**64:
            raise SagdError(f"seed {seed} is not a 64-bit unsigned integer")
        if seed in seen:  # a repeat would run one trajectory twice and count it twice
            raise SagdError(f"seed {seed} is repeated in {text!r}")
        seen.add(seed)
    return seeds


def _parse_taus(text):
    """The (lo, hi) ranges of a --taus list, left unexpanded."""
    ranges = []
    for tok in filter(None, map(str.strip, text.split(","))):
        try:
            lo, hi = map(int, tok.split("-", 1) if "-" in tok[1:] else (tok, tok))
        except ValueError:
            raise SagdError(f"bad --taus entry {tok!r}") from None
        if lo > hi:
            raise SagdError(f"bad --taus entry {tok!r}: the range runs backwards")
        ranges.append((lo, hi))
    if not ranges:
        raise SagdError(f"empty tau list {text!r}")
    return ranges


def _expand_taus(ranges, n):
    """The sorted distinct taus of ``ranges``, each range checked to lie in [1, n] first."""
    bad = [lo for lo, _ in ranges if lo < 1] or [max(lo, n + 1) for lo, hi in ranges if hi > n]
    if bad:
        raise SagdError(f"need 1 <= tau <= n, got tau={min(bad)}, n={n}")
    return sorted(set().union(*(range(lo, hi + 1) for lo, hi in ranges)))


def _number(args, flag, kind):
    """The value of ``--flag`` converted by ``kind`` (int or float)."""
    text = getattr(args, flag)
    try:
        return kind(text)
    except ValueError:
        raise SagdError(f"bad --{flag} value {text!r}") from None


def _load_dataset(args, seed=0):
    if args.d_override is not None and not args.data:
        raise SagdError("--d-override needs --data")
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
            data = synth_gaussian(n, d, seed=seed)
        elif dist == "uniform":
            data = synth_uniform(n, d, seed=seed)
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


# each plan output's candidate row, a % field per value: the JSON keys sorted, each
# kind bare inside its quotes (kinds need no escaping), the table's columns as headed
_JSON_ROW = '{"alpha": %s, "covered": %s, "kind": "%s", "omega_coef": %s, "q": %s, "tau": %d}'
_JSON_FIELDS = ("alpha", "covered", "q_kind", "omega_coef", "q", "tau")
_TABLE_ROW = "%6d %14s %12.6g %14.6g %12.6g"
_TABLE_FIELDS = ("tau", "q_kind", "q", "omega_coef", "alpha")
_PLAN_BLOCK_ROWS = 4096  # plan formats and writes this many candidate rows at a time


def _json_values(column):
    """One slate column's entries as ``_JSON_ROW`` takes them: ``json.dumps`` spells flags
    and non-finite floats; the rest stay as they are (``str`` of a float is its repr)."""
    values = column.tolist()
    if column.dtype.kind == "b":  # flags: few distinct values
        spelled = {v: json.dumps(v) for v in set(values)}
        return list(map(spelled.__getitem__, values))
    if column.dtype.kind == "f":
        for i in np.flatnonzero(~np.isfinite(column)).tolist():
            values[i] = json.dumps(values[i])
    return values


def _plan_rows(template, joiner, columns, values=np.ndarray.tolist):
    """``template`` filled with each row of the slate ``columns`` (the entries
    ``values`` gives), joined by ``joiner``: one ``%`` for all the rows."""
    fields = tuple(itertools.chain.from_iterable(zip(*map(values, columns))))
    return joiner.join([template] * len(columns[0])) % fields


def _print_plan_rows(template, joiner, columns, values=np.ndarray.tolist, order=None):
    """Print ``_plan_rows`` of the slate ``columns`` (in slate order, or that of ``order``)
    ``_PLAN_BLOCK_ROWS`` rows at a time: one text with no newline at the end."""
    for s in range(0, len(columns[0]), _PLAN_BLOCK_ROWS):
        rows = slice(s, s + _PLAN_BLOCK_ROWS) if order is None else order[s:s + _PLAN_BLOCK_ROWS]
        block = _plan_rows(template, joiner, [c[rows] for c in columns], values)
        print(joiner if s else "", block, sep="", end="")


def cmd_plan(args):
    explicit = [args.n, args.l_max, args.mu]
    if any(v is not None for v in explicit):
        if any(v is None for v in explicit):
            raise SagdError("explicit plans need --n, --l-max and --mu together")
        dataset_flags = {"--data": args.data, "--synth": args.synth, "--lambda": args.lam,
                         "--normalize": args.normalize or None, "--d-override": args.d_override}
        given = [flag for flag, value in dataset_flags.items() if value is not None]
        if given:
            raise SagdError(f"explicit plans take no dataset flags, got {', '.join(given)}")
        l_bar = args.l_bar if args.l_bar is not None else args.l_max
        profile = SmoothnessProfile.from_bounds(args.n, args.l_max, l_bar, args.mu)
        source = "explicit"
    elif args.l_bar is not None:
        raise SagdError("--l-bar needs --n, --l-max and --mu")
    else:
        data, loss, source = _load_dataset(args)
        profile = smoothness_profile(data, loss)
    n = profile.n
    plan = optimal_plan(profile)
    closed = full_batch_interpolation(profile) if n >= 3 else None
    slate = plan.all_candidates
    if args.json:
        best = [np.atleast_1d(getattr(plan.best, name)) for name in _JSON_FIELDS]
        best = _plan_rows(_JSON_ROW, "", best, _json_values)
        print(f'{{"best": {best}, "candidates": [', end="")
        _print_plan_rows(_JSON_ROW, ", ", [slate[name] for name in _JSON_FIELDS], _json_values)
        rest = {  # every key sorts after "candidates"
            "source": source,
            "n": n,
            "l_max": profile.L_max,
            "l_bar": profile.L_bar,
            "mu": profile.mu,
            "saga_omega": plan.saga_omega,
            "full_batch": None if closed is None else dataclasses.asdict(closed),
        }
        print("], " + json.dumps(rest, sort_keys=True)[1:])
        return EXIT_OK
    print(f"profile: n={n} L_max={profile.L_max:.6g} L_bar={profile.L_bar:.6g} "
          f"mu={profile.mu:.6g}")
    print(f"single-sample baseline omega: {plan.saga_omega:.6g}")
    if closed is not None:
        print(
            f"full-batch closed form ({closed.regime} conditioned): "
            f"q={closed.q:.6g} alpha={closed.alpha:.6g} omega={closed.omega_coef:.6g}"
        )
    print(f"{'tau':>6} {'kind':>14} {'q':>12} {'omega':>14} {'alpha':>12}")
    order = np.lexsort((slate.tau, slate.omega_coef))  # stable: ties keep slate order
    _print_plan_rows(_TABLE_ROW, "\n", [slate[name] for name in _TABLE_FIELDS], order=order)
    print()
    best = plan.best
    print(f"chosen: q*={best.q:.6g} tau*={best.tau} omega={best.omega_coef:.6g}")
    return EXIT_OK


class _Pipeline:
    """The part of a run or sweep command before its first solve, done once,
    and the per-seed solve.  A sweep is a run over its --taus: its parser
    gives it run's tau and alpha, both "auto", and no plot.

    Construction runs, in order: the budget check (``budget`` is a
    SolverConfig that each solve completes with q, tau, alpha and seed;
    an explicit --alpha is checked with it), the resolved ``out``, run's
    manifest and ``plot`` paths checked to name files in existing directories
    (the plot neither the CSV nor its manifest), the number flags, the ``seeds``,
    the dataset, the explicit q and tau and the sweep's taus checked against
    its n, its profile, and the plan: both q and tau
    auto take ``optimal_plan``'s best pair, one auto value is planned with
    the other held fixed.  ``tau`` keeps the planned (or explicit) tau;
    ``cells`` lists the ``(q, tau, alpha)`` of every solve (run's one tau,
    or each of the sweep's), auto stepsizes from one array call.  Last come
    the reference ``x_star`` and the gradient table at x0 = 0: each solve
    takes a copy, the last the table.
    """

    def __init__(self, args):
        sweep = args.command == "sweep"
        alpha = None if args.alpha == "auto" else _number(args, "alpha", float)
        self.budget = SolverConfig(  # 1.0 stands in for an auto alpha, resolved later
            q=0.0, tau=1, alpha=1.0 if alpha is None else alpha, tol=args.tol,
            max_effective_passes=args.max_passes, check_every_passes=args.check_every,
        )
        if args.plot and not args.out:
            raise SagdError("--plot needs --out")
        self.out, self.plot = _resolve_out(args.out), _resolve_out(args.plot)
        manifest = f"{self.out}.manifest.json" if self.out and not sweep else None
        for path in filter(None, (self.out, manifest, self.plot)):  # "" resolves to "./"
            folder = os.path.dirname(path) or "."
            if not os.path.isdir(folder):
                raise SagdError(f"output directory {folder!r} does not exist")
            if os.path.isdir(path):
                raise SagdError(f"output path {path!r} is a directory")
        if self.plot and os.path.realpath(self.plot) in map(os.path.realpath, (self.out, manifest)):
            raise SagdError(f"--plot {self.plot!r} would overwrite the results CSV or its manifest")
        q = None if args.q == "auto" else _number(args, "q", float)
        tau = None if args.tau == "auto" else _number(args, "tau", int)
        ranges = _parse_taus(args.taus) if sweep else None
        self.seeds = _parse_seeds(args.seed)
        data, loss, self.dataset_id = _load_dataset(args, self.seeds[0])
        self.data, self.loss = data, loss
        InterpolationConfig(0.0 if q is None else q, 1 if tau is None else tau, data.n)
        taus = _expand_taus(ranges, data.n) if sweep else None
        profile = smoothness_profile(data, loss)
        line = None
        if q is None and tau is None:
            plan = optimal_plan(profile)
            q, tau = plan.best.q, plan.best.tau
            line = (f"plan: q*={q:.6g} tau*={tau} "
                    f"omega={plan.best.omega_coef:.6g} (baseline {plan.saga_omega:.6g})")
        elif q is None:  # an auto value is planned with the explicit one held fixed
            q, omega = plan_q(profile, tau)
            line = f"plan: q*={q:.6g} at tau={tau} omega={omega:.6g}"
        elif tau is None:
            tau, omega = plan_tau(profile, q)
            line = f"plan: tau*={tau} at q={q:.6g} omega={omega:.6g}"
        if line and not sweep:  # with --json, stdout holds the JSON document alone
            print(line, file=sys.stderr if args.json else sys.stdout)
        self.tau, taus = tau, taus or [tau]
        icfg = InterpolationConfig(q=q, tau=np.array(taus), n=data.n)
        alphas = stepsize(icfg, profile).tolist() if alpha is None else [alpha]
        self.cells = [(q, t, a) for t, a in zip(taus, alphas)]
        xstar_tol = min(1e-12, args.tol * 1e-2) if loss.kind == "logistic" else 1e-12
        self.x_star = exact_solution(data, loss, tol=max(xstar_tol, 1e-14), profile=profile)
        table = solver.init_table(data, loss, np.zeros(data.d))
        copies = (dataclasses.replace(table, J=table.J.copy(), col_sum=table.col_sum.copy())
                  for _ in range(len(self.seeds) * len(self.cells) - 1))
        self._tables = itertools.chain(copies, [table])  # each solve writes into its own

    def solve(self, q, tau, alpha):
        """One solver run per seed at (q, tau, alpha) under the budget."""
        configs = (dataclasses.replace(self.budget, q=q, tau=tau, alpha=alpha, seed=seed)
                   for seed in self.seeds)
        return [run_solver(self.data, self.loss, cfg, x_star=self.x_star, table=next(self._tables))
                for cfg in configs]


def cmd_run(args):
    pipe = _Pipeline(args)
    ((q, tau, alpha),), n = pipe.cells, pipe.data.n
    results = pipe.solve(q, tau, alpha)

    if pipe.out:
        manifest = RunManifest.new(
            pipe.dataset_id, pipe.loss.kind, pipe.loss.lam, q, tau, alpha, pipe.seeds)
        series = [TrajectorySeries("sagd", q, tau, r.seed, n, r.points) for r in results]
        write_results_csv(series, pipe.out, manifest=manifest)
        if pipe.plot:
            emit_svg_plot(pipe.out, args.x_axis, pipe.plot)

    summaries = [{"seed": r.seed, "converged": r.converged, "diverged": r.diverged,
                  "passes": r.passes_to_tol(args.tol, n),
                  "wall_seconds": r.points[-1].wall_seconds} for r in results]
    if args.json:
        payload = {"dataset": pipe.dataset_id, "q": q, "tau": tau, "alpha": alpha,
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
    return EXIT_OK if all(r.converged for r in results) else EXIT_NO_CONVERGENCE


def cmd_sweep(args):
    pipe = _Pipeline(args)
    rows = []
    all_converged = True
    for q, tau, alpha in pipe.cells:
        results = pipe.solve(q, tau, alpha)
        all_converged &= all(r.converged for r in results)
        passes = [r.passes_to_tol(args.tol, pipe.data.n) for r in results]
        median = statistics.median(float("inf") if p is None else p for p in passes)
        rows.append({"tau": tau, "median_passes": median,
                     "diverged": [r.seed for r in results if r.diverged]})

    best_row = min(rows, key=lambda r: r["median_passes"])
    if pipe.out:
        with open(pipe.out, "w", encoding="ascii") as fh:
            fh.write("tau,median_passes\n")
            for row in rows:
                fh.write(f"{row['tau']},{row['median_passes']:.17g}\n")
    if args.json:
        payload = {"dataset": pipe.dataset_id, "q": q, "rows": rows,
                   "best_tau_observed": best_row["tau"], "planner_tau": pipe.tau}
        print(json.dumps(payload, sort_keys=True))
    else:
        for row in rows:
            seeds_note = ", ".join(map(str, row["diverged"]))
            print(f"tau={row['tau']:>5}  median passes={row['median_passes']:.2f}"
                  + (f"  DIVERGED (seeds {seeds_note})" if row["diverged"] else ""))
        print(f"best observed tau: {best_row['tau']}; planner tau*: {pipe.tau}")
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
    try:
        args = _parser().parse_args(argv)
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
