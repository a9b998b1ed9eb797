"""The benchmark's workloads: what one operation runs, and its inputs.

An operation is a short list of ``sagd`` command lines, each passed to
``sagd.cli.main`` in one fresh child process.  Every input an operation
gets (synthetic-data seeds, solver seeds, the sparse LIBSVM file, the
explicit smoothness profiles) is derived from one integer operation seed,
so the same seed always yields the same inputs.

Sizes are scaled down from the shapes they model so that one operation
takes a few seconds on a 2-core machine and a run of the benchmark holds
several operations (the scale-down is recorded next to each size).
"""

import random

MASK64 = (1 << 64) - 1

# desk-sweep: the shape of the tau-sensitivity acceptance criterion, modelled
# on n = 1000 (tau* = 22, taus 1..88).  At n = 300, d = 10 the planner's
# tau* is 6-7, so taus 1..26 still span about 4 tau*.
DESK_N = 300
DESK_TAUS = "1-26"

# large-n-ridge: modelled on n = 1e5 (19 s per operation); 2e4 keeps one
# operation near 3 s.
RIDGE_N = 20000

# sparse-logistic: modelled on n = 1000, lambda = 2e-3 (q* = 0.92, tau* = 5).
# Halving n and doubling lambda keeps 4 L_max / mu near 0.26 n, so the
# planned q* stays interior (0.85, tau* = 5) and both solver branches run,
# while the gradient-descent reference gets 4x cheaper.
SPARSE_N, SPARSE_D, SPARSE_DENSITY, SPARSE_LAMBDA = 500, 500, 0.02, 4e-3

# closed-form: modelled on n = 1e5 plans (6 s each) and the default verify
# grid (n_max = 8, 6 s).  The planner is O(n) scalar Python: 1e4 keeps one
# plan under 1 s, and n_max = 6 halves verify.  4 L_max / mu = ratio * n
# for each profile: 0.7 gives an interior q*, 0.05 gives q* = 1, and 5 a
# badly conditioned problem.
PLAN_N = 10000
PLAN_COND_RATIOS = (0.7, 0.05, 5.0)
VERIFY_N_MAX = 6


def op_seed(workload_seed):
    """The operation seed of a workload seed: any integer, taken mod 2**64."""
    return workload_seed & MASK64


def _seed_list(s, count):
    return ",".join(str((s + i) & MASK64) for i in range(count))


def _desk_sweep(s, workdir):
    data = ["--synth", f"{DESK_N},10,gaussian", "--normalize"]
    return [
        ["sweep", *data, "--q", "auto", "--taus", DESK_TAUS, "--seed", str(s), "--json"],
        ["run", *data, "--q", "0", "--tau", "1", "--seed", _seed_list(s, 3), "--json"],
    ]


def _large_n_ridge(s, workdir):
    return [[
        "run", "--synth", f"{RIDGE_N},10,gaussian", "--normalize",
        "--q", "1", "--tau", "32", "--tol", "1e-6", "--seed", str(s),
        "--out", str(workdir / f"ridge-{s}.csv"), "--json",
    ]]


def write_sparse_libsvm(path, s):
    """A LIBSVM file of SPARSE_N rows over SPARSE_D features, each feature
    present with probability SPARSE_DENSITY (at least one per row), labelled
    +-1 by a noisy planted linear classifier."""
    rng = random.Random(s)
    w = [rng.gauss(0.0, 1.0) for _ in range(SPARSE_D)]
    lines = []
    for _ in range(SPARSE_N):
        idx = [j for j in range(SPARSE_D) if rng.random() < SPARSE_DENSITY]
        if not idx:
            idx = [rng.randrange(SPARSE_D)]
        vals = [rng.gauss(0.0, 1.0) for _ in idx]
        margin = sum(v * w[j] for j, v in zip(idx, vals)) + 0.5 * rng.gauss(0.0, 1.0)
        feats = " ".join(f"{j + 1}:{v!r}" for j, v in zip(idx, vals))
        lines.append(f"{1 if margin >= 0.0 else -1} {feats}\n")
    path.write_text("".join(lines), encoding="ascii")


def _sparse_logistic(s, workdir):
    path = workdir / f"sparse-{s}.libsvm"
    write_sparse_libsvm(path, s)
    return [[
        "run", "--data", str(path), "--d-override", str(SPARSE_D), "--loss", "logistic",
        "--normalize", "--lambda", repr(SPARSE_LAMBDA), "--q", "auto", "--tau", "auto",
        "--tol", "1e-8", "--seed", _seed_list(s, 3), "--json",
    ]]


def _closed_form(s, workdir):
    rng = random.Random(s)
    calls = []
    for ratio in PLAN_COND_RATIOS:
        l_max = rng.uniform(0.5, 2.0)
        l_bar = l_max * rng.uniform(0.5, 1.0)
        mu = 4.0 * l_max / (ratio * PLAN_N)
        calls.append([
            "plan", "--n", str(PLAN_N), "--l-max", repr(l_max), "--l-bar", repr(l_bar),
            "--mu", repr(mu), "--json",
        ])
    calls.append(["verify", "--n-max", str(VERIFY_N_MAX), "--json"])
    return calls


# why each workload was chosen is recorded in BENCHMARK.json
WORKLOADS = {
    "desk-sweep": _desk_sweep,
    "large-n-ridge": _large_n_ridge,
    "sparse-logistic": _sparse_logistic,
    "closed-form": _closed_form,
}


def build_op(workload, s, workdir):
    """Write the inputs of operation seed ``s`` under ``workdir`` and return
    the command lines of the operation."""
    return WORKLOADS[workload](s, workdir)
