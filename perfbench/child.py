"""Run one benchmark operation in this process; print its result as JSON.

Reads ``{"calls": [argv, ...], "trace": bool}`` on standard input and passes
each argv to ``sagd.cli.main``, in order, with the command's standard output
captured.  Prints one JSON object: the import time of ``sagd``, the host
probe's time just before the first call and just after the last, and for each
call its exit code, wall time and what the correctness checks need (the
solves' trajectories, the plan and verify outputs).  With ``"trace": true``
it also installs the tracer and reports the per-layer metrics.

The solver results are taken from a thin wrapper on ``sagd.cli.run_solver``
that only keeps each returned ``RunResult``; it adds no timer.
"""

import contextlib
import hashlib
import io
import json
import math
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBE_ITERATIONS = 150_000


def sha256_json(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def solve_record(n, tol, result):
    points = result.points
    return {
        # (iter, grad_evals) of every checkpoint: changes with any trajectory change
        "trajectory_sha256": sha256_json([[p.iter, p.grad_evals] for p in points]),
        "points": len(points),
        "passes": result.passes_to_tol(tol, n),
        "converged": bool(result.converged),
        "tol": tol,
        "error": points[-1].error,
        "wall_s": points[-1].wall_seconds,
        # evaluations inside the timed loop (the table fill at x0 is outside it)
        "loop_grad_evals": points[-1].grad_evals - points[0].grad_evals,
    }


def blas_library():
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


def call_record(argv, rc, wall, out, solves):
    rec = {"command": argv[0], "rc": rc, "wall_s": wall, "solves": solves}
    if rc != 0:
        return rec
    if argv[0] == "plan":
        plan = json.loads(out)
        rec["plan"] = {
            "sha256": hashlib.sha256(out.encode()).hexdigest(),
            "best_omega": plan["best"]["omega_coef"],
            "saga_omega": plan["saga_omega"],
            "best_q": plan["best"]["q"],
            "best_tau": plan["best"]["tau"],
            "candidates": len(plan["candidates"]),
        }
    elif argv[0] == "verify":
        rec["verify"] = [
            {"name": r["name"], "passed": r["passed"], "checks": r["checks"]}
            for r in json.loads(out)
        ]
    elif argv[0] == "sweep":
        sweep = json.loads(out)
        rec["sweep"] = {"rows": len(sweep["rows"]), "q": sweep["q"],
                        "planner_tau": sweep["planner_tau"]}
    elif argv[0] == "run":
        # with --q/--tau auto a "plan: ..." line precedes the JSON
        run = json.loads(out.splitlines()[-1])
        rec["run"] = {"q": run["q"], "tau": run["tau"]}
    return rec


def host_probe_ms(iterations=PROBE_ITERATIONS):
    """Time of a fixed pure-Python float loop (Gaussian draws, square roots,
    list appends, the kind of work sagd's set-up does in the interpreter):
    how fast the host is running this child right now."""
    rng = random.Random(0)
    out = []
    t = time.perf_counter()
    for i in range(iterations):
        out.append(rng.gauss(0.0, 1.0) * 1.5 + math.sqrt(i))
    return (time.perf_counter() - t) * 1e3


def main():
    spec = json.load(sys.stdin)
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import sagd.cli

    import_s = time.perf_counter() - t0

    captured = []
    run_solver = sagd.cli.run_solver

    def keep_result(data, loss, cfg, **kwargs):
        result = run_solver(data, loss, cfg, **kwargs)
        captured.append(solve_record(data.n, cfg.tol, result))
        return result

    sagd.cli.run_solver = keep_result
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    # the host's speed just before and just after the operation
    probe_ms = [host_probe_ms()]
    calls = []
    cli_seconds = {}
    for argv in spec["calls"]:
        captured.clear()
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            rc = sagd.cli.main(argv)
        wall = time.perf_counter() - start
        cli_seconds[argv[0]] = cli_seconds.get(argv[0], 0.0) + wall
        calls.append(call_record(argv, rc, wall, out.getvalue(), list(captured)))
    probe_ms.append(host_probe_ms())

    result = {
        "import_s": import_s,
        "host_probe_ms": probe_ms,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": sys.modules["numpy"].__version__,
            "scipy": sys.modules["scipy"].__version__,
            "blas": blas_library(),
        },
        "calls": calls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        from tracer import wrapper_cost_us

        result["layers"] = tracer.layer_metrics(cli_seconds)
        result["spans"] = len(tracer.ids)
        result["wrapper_us_per_call"] = wrapper_cost_us()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
