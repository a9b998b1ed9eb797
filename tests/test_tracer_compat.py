"""The benchmark's tracer patches sagd by name; a rename or deletion of a
traced name must fail here, not only under ``perfbench/run.py --trace 1``."""

import json
import os
import subprocess
import sys
from pathlib import Path

from sagd import cli
from sagd.planner import optimal_plan
from sagd.problem import SmoothnessProfile, smoothness_profile

ROOT = Path(__file__).resolve().parents[1]

CALLS = [
    ["plan", "--n", "50", "--l-max", "1", "--mu", "0.05", "--json"],
    ["run", "--synth", "60,3,gaussian", "--normalize", "--q", "0.5", "--tau", "4",
     "--seed", "1", "--tol", "1e-6", "--json"],
    ["sweep", "--synth", "60,3,gaussian", "--normalize", "--q", "0.5", "--taus", "2,4",
     "--seed", "1", "--tol", "1e-6", "--json"],
    ["verify", "--n-max", "2", "--json"],
]


def test_traced_child_runs_every_command(tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py")],
        input=json.dumps({"calls": CALLS, "trace": True}),
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert [c["rc"] for c in result["calls"]] == [0, 0, 0, 0]
    layers = result["layers"]
    for name in ("solver.sagd_step.batch.calls", "solver.sagd_step.single.calls",
                 "problem.smoothness_profile.calls", "solver.table.refresh.calls"):
        assert layers[name] > 0, name
    # the tracer counts candidates with len(); it must count the slate's rows
    data, loss, _ = cli._load_dataset(cli.build_parser().parse_args(CALLS[2]), seed=1)
    plans = [optimal_plan(SmoothnessProfile.from_bounds(50, 1.0, 1.0, 0.05)),
             optimal_plan(smoothness_profile(data, loss))]
    rows = [plan.all_candidates.tau.size for plan in plans]
    assert result["calls"][0]["plan"]["candidates"] == rows[0]
    assert layers["planner.optimal_plan.candidates"] == sum(rows)
