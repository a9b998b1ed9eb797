"""Benchmark of the ``sagd`` command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload desk-sweep --seed 1 --seconds 28 --trace 0

Load model: a closed loop with one client.  This process runs one operation
at a time; each operation is a fresh child process (``child.py``) that
imports ``sagd`` from ``src/`` and passes real argv to ``sagd.cli.main``, so
peak RSS is per operation.  Never more than one child runs.  BLAS threads
in the child are pinned through its environment (CHILD_ENV).

One run repeats one operation, with the inputs of ``--seed``, until
``--seconds`` are used.  ``--trace 0`` makes at least MIN_OPS repeats and
reports the end-to-end metrics as medians over them.  ``--trace 1``
alternates untraced and traced repeats (at least MIN_TRACED_REPEATS traced)
and reports the per-layer metrics as medians over the traced ones; every
count must repeat exactly, and the untraced ones give the tracing overhead.

Every operation's outputs are checked (exit codes, convergence to --tol,
plan sanity, verify, golden digests); a failed check fails the operation.
The last line of standard output is the JSON result; the line before it is
a JSON report with every metric, provenance and any failures.
"""

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, build_op, op_seed  # noqa: E402

CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
MIN_OPS = 3
MIN_TRACED_REPEATS = 2
DEADLINE_S = 170.0  # the whole run must end within 180 s
GOLDEN_PATH = HERE / "golden.json"
GOLDEN_ERROR_RTOL = 1e-9

# every end-to-end metric of the report.  BENCHMARK.json gates only those
# that are non-zero on every workload and steady on a shared host; see
# NOTES.md for why wall_s and the solver and planner metrics are not.
REPORT_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "setup_wall_s": "s",
    "solve_s": "s",
    "us_per_grad_eval": "us",
    "passes.median": "passes",
    "plan_s": "s",
    "verify_s": "s",
    "peak_rss_mb": "MB",
    "import_s": "s",
    "host_probe_ms": "ms",
}

# the host probe's time (child.host_probe_ms) when the host runs at full
# speed; setup_s is set-up wall time rescaled to a host running at this speed
PROBE_REF_MS = 80.0

# per-layer metrics that count work; they must repeat exactly for one seed
# (byte counts do not: the results CSV holds wall-clock columns)
COUNT_SUFFIXES = (".calls", ".rows", ".words", ".candidates", ".checks")

# per-call times compared against the cost of the span wrapper
PER_CALL_METRICS = (
    "numerics.sample_subset.us_per_call",
    "problem.grad.us_per_call",
    "problem.batch_grad.us_per_row",
    "complexity.total_complexity.us_per_call",
    "solver.sagd_step.batch.us_per_step",
    "solver.sagd_step.single.us_per_step",
)
WRAPPER_SHARE_LIMIT = 0.2


class OpFailed(Exception):
    pass


@contextlib.contextmanager
def scratch_dir(name):
    """A directory for generated inputs and outputs, removed afterwards."""
    path = ROOT / ".perfbench-work" / name
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            path.parent.rmdir()


def run_child(calls, trace, workdir, timeout):
    """Run one operation in a fresh child process and return its result."""
    spec = json.dumps({"calls": calls, "trace": trace})
    env = dict(os.environ, **CHILD_ENV)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py")],
            input=spec, capture_output=True, text=True, env=env, cwd=workdir,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise OpFailed(f"operation exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise OpFailed(f"child exited {proc.returncode}: {' | '.join(tail)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def op_digest(result):
    """Digest of everything an operation computes that must not change:
    plan JSON bytes, verify verdicts, and each solve's (iter, grad_evals)
    columns and passes to tolerance.  Wall times and errors are left out."""
    material = []
    for call in result["calls"]:
        material.append([
            call["command"],
            call.get("plan", {}).get("sha256"),
            call.get("verify"),
            [[s["trajectory_sha256"], s["passes"]] for s in call["solves"]],
        ])
    return hashlib.sha256(json.dumps(material, sort_keys=True).encode()).hexdigest()


def op_errors(result):
    return [s["error"] for call in result["calls"] for s in call["solves"]]


def check_op(workload, seed, calls, result, golden):
    """Return the list of failed checks of one operation (empty if none)."""
    problems = []
    for argv, call in zip(calls, result["calls"]):
        cmd = call["command"]
        if call["rc"] != 0:
            problems.append(f"{cmd} exited {call['rc']}")
            continue
        for i, solve in enumerate(call["solves"]):
            if not solve["converged"] or not solve["error"] <= solve["tol"]:
                problems.append(f"{cmd} solve {i} did not reach tol {solve['tol']:g}")
        if cmd == "plan" and not call["plan"]["best_omega"] <= call["plan"]["saga_omega"]:
            problems.append("plan: best omega exceeds the SAGA baseline")
        if cmd == "verify" and not all(r["passed"] for r in call["verify"]):
            problems.append("verify: a suite failed")
        if cmd == "sweep":
            seeds = len(argv[argv.index("--seed") + 1].split(","))
            if call["sweep"]["rows"] * seeds != len(call["solves"]):
                problems.append("sweep: row count does not match the solves")
        if "--out" in argv:
            out = Path(argv[argv.index("--out") + 1])
            points = sum(s["points"] for s in call["solves"])
            if not out.is_file() or not Path(f"{out}.manifest.json").is_file():
                problems.append("run: results CSV or manifest missing")
            elif len(out.read_text(encoding="ascii").splitlines()) != points + 1:
                problems.append("run: results CSV row count does not match the trajectory")
    expected = golden.get(workload, {}).get(str(seed))
    if expected is not None and not problems:
        if op_digest(result) != expected["digest"]:
            problems.append("output digest differs from the golden digest")
        errors = op_errors(result)
        if len(errors) != len(expected["errors"]) or any(
            abs(e - g) > GOLDEN_ERROR_RTOL * abs(g) for e, g in zip(errors, expected["errors"])
        ):
            problems.append("final errors differ from golden values beyond 1e-9 relative")
    return problems


def op_metrics(result):
    """End-to-end metrics of one operation (None where they do not apply)."""
    calls = result["calls"]
    solves = [s for c in calls for s in c["solves"]]
    wall = sum(c["wall_s"] for c in calls)
    solve = sum(s["wall_s"] for s in solves)
    evals = sum(s["loop_grad_evals"] for s in solves)
    passes = [s["passes"] for s in solves if s["passes"] is not None]
    probe_ms = statistics.mean(result["host_probe_ms"])

    def phase(cmd):
        walls = [c["wall_s"] for c in calls if c["command"] == cmd]
        return sum(walls) if walls else None

    return {
        "wall_s": wall,
        "setup_s": (wall - solve) * PROBE_REF_MS / probe_ms,
        "setup_wall_s": wall - solve,
        "solve_s": solve if solves else None,
        "us_per_grad_eval": solve * 1e6 / evals if evals else None,
        "passes.median": statistics.median(passes) if passes else None,
        "plan_s": phase("plan"),
        "verify_s": phase("verify"),
        "peak_rss_mb": result["peak_rss_mb"],
        "import_s": result["import_s"],
        "host_probe_ms": probe_ms,
    }


def summarize(values):
    values = [v for v in values if v is not None]
    if not values:
        return None
    return {"median": statistics.median(values), "min": min(values), "max": max(values),
            "n": len(values)}


def read_cpuinfo():
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind in ("Unified", "Data") and level in ("2", "3"):
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return model, caches


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        return None


def provenance(workload_seed, versions):
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sagd").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    model, caches = read_cpuinfo()
    return {
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest(),
        **versions,
        "blas_threads": CHILD_ENV["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "loadavg_at_start": os.getloadavg(),
        "workload_seed": workload_seed,
    }


def load_golden():
    if GOLDEN_PATH.is_file():
        return json.loads(GOLDEN_PATH.read_text())
    return {}


def repeat_op(args, calls, seed, workdir, golden, started):
    """Run the operation again and again until ``--seconds`` are used.

    Returns ``(attempted, failures, untraced, traced)``.  Without tracing
    every repeat is untraced and there are at least MIN_OPS; with tracing
    untraced and traced repeats alternate, with at least MIN_TRACED_REPEATS
    traced ones, so that both see the same host conditions.
    """
    failures, untraced, traced = [], [], []
    attempted = 0
    longest = 0.0
    loop_start = time.perf_counter()
    while True:
        trace = bool(args.trace) and len(untraced) > len(traced)
        attempted += 1
        t = time.perf_counter()
        try:
            result = run_child(calls, trace, workdir, DEADLINE_S - (t - started))
            problems = check_op(args.workload, seed, calls, result, golden)
        except OpFailed as exc:
            result, problems = None, [str(exc)]
        longest = max(longest, time.perf_counter() - t)
        if problems:
            failures.append({"repeat": attempted - 1, "traced": trace, "problems": problems})
        if result is None:
            break
        (traced if trace else untraced).append(result)
        now = time.perf_counter()
        if now - started + longest > DEADLINE_S:
            break
        enough = len(traced) >= MIN_TRACED_REPEATS if args.trace else len(untraced) >= MIN_OPS
        if enough and now - loop_start + longest > args.seconds:
            break
    return attempted, failures, untraced, traced


def end_to_end(untraced, attempted, failures, report):
    """Medians over the untraced repeats; fail_rate over all repeats."""
    per_op = [op_metrics(r) for r in untraced]
    report["ops"] = per_op
    summary = {name: summarize([m[name] for m in per_op]) for name in REPORT_UNITS}
    report["end_to_end"] = {
        name: {"value": None if s is None else s["median"], "unit": REPORT_UNITS[name],
               "samples": s}
        for name, s in summary.items()
    }
    report["end_to_end"]["fail_rate"] = {
        "value": len(failures) / attempted, "unit": "ratio",
        "failed": len(failures), "attempted": attempted,
    }
    return {n: (None if s is None else s["median"]) for n, s in summary.items()}


def per_call_us(layers, metric):
    """A per-call metric as time per wrapped call (batch_grad is per row)."""
    if metric != "problem.batch_grad.us_per_row":
        return layers[metric]
    calls = layers["problem.batch_grad.calls"]
    return layers[metric] * layers["problem.batch_grad.rows"] / calls if calls else 0.0


def per_layer(untraced, traced, attempted, failures, report):
    """Medians over the traced repeats; counts must repeat exactly.  The
    untraced repeats give the end-to-end metrics of the report and the
    tracing overhead."""
    errors = []
    layers = {}
    if traced:
        names = traced[0]["layers"].keys()
        for name in names:
            values = [r["layers"][name] for r in traced]
            if name.endswith(COUNT_SUFFIXES):
                if len(set(values)) != 1:
                    errors.append(f"count {name} differs across traced repeats: {values}")
                layers[name] = values[0]
            else:
                layers[name] = statistics.median(values)
        layers["trace.wrapper_us_per_call"] = statistics.median(
            r["wrapper_us_per_call"] for r in traced)
        untraced_wall = end_to_end(untraced, attempted, failures, report)["wall_s"]
        layers["trace.overhead_s"] = statistics.median(
            op_metrics(r)["wall_s"] for r in traced) - untraced_wall
        cost = layers["trace.wrapper_us_per_call"]
        report["wrapper_cost_flags"] = [
            {"metric": m, "us_per_call": us, "wrapper_share": cost / us}
            for m, us in ((m, per_call_us(layers, m)) for m in PER_CALL_METRICS)
            if us > 0 and cost > WRAPPER_SHARE_LIMIT * us
        ]
        report["q"] = [c[c["command"]]["q"] for c in traced[0]["calls"]
                       if c["command"] in ("run", "sweep")]
        report["spans_per_op"] = [r["spans"] for r in traced]
        report["traced_repeats"] = len(traced)
    return layers, errors


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args




def main(argv=None):
    args = parse_args(argv)
    started = time.perf_counter()
    if not (ROOT / "src" / "sagd" / "cli.py").is_file():
        print(f"error: no sagd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    try:
        with scratch_dir(str(os.getpid())) as workdir:
            # one untimed child fills the OS and bytecode caches and reports versions
            warm = run_child([], False, workdir, 60.0)
            report = {
                "workload": args.workload,
                "why": next(w["why"] for w in bench["workloads"] if w["name"] == args.workload),
                "trace": args.trace,
                "provenance": provenance(args.seed, warm["versions"]),
            }
            seed = op_seed(args.seed)
            calls = build_op(args.workload, seed, workdir)
            attempted, failures, untraced, traced = repeat_op(
                args, calls, seed, workdir, load_golden(), started)
    except OpFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        values, errors = per_layer(untraced, traced, attempted, failures, report)
    else:
        values, errors = end_to_end(untraced, attempted, failures, report), []
    report["failures"] = failures
    report["errors"] = errors
    missing = [name for name in declared if values.get(name) is None]
    if missing:
        errors.append(f"no value for {missing}")
    print("report " + json.dumps(report, sort_keys=True))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in declared.items() if values.get(name) is not None}
    print(json.dumps({
        "correct": not failures and not errors,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
