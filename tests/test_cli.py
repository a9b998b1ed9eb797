import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sagd import cli, complexity, planner, problem, solver
from sagd.complexity import InterpolationConfig, stepsize, total_complexity
from sagd.data_io import read_results_csv, synth_gaussian, write_libsvm
from sagd.planner import PlanCandidate


def run_cli(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def count_profiles(monkeypatch):
    """Count smoothness_profile calls from every module that looks it up."""
    calls = []
    original = problem.smoothness_profile

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for mod in (cli, problem, solver):
        monkeypatch.setattr(mod, "smoothness_profile", counted)
    return calls


def count_work(monkeypatch):
    """Count every loaded dataset ("load"), profile (1), Gram matrix
    ("gram"), reference solution ("reference") and gradient-table fill
    ("table") that the CLI computes."""
    calls = count_profiles(monkeypatch)

    def counted(owner, name, label):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append(label)
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for name in ("parse_libsvm", "synth_gaussian"):
        counted(cli, name, "load")
    counted(cli, "exact_solution", "reference")
    counted(problem, "_gram_matrix", "gram")
    counted(solver, "init_table", "table")
    return calls


def keep_solves(monkeypatch):
    """Record the (table, result) of every solve the CLI runs."""
    solves = []
    run_solver = cli.run_solver

    def kept(data, loss, cfg, **kwargs):
        result = run_solver(data, loss, cfg, **kwargs)
        solves.append((kwargs.get("table"), result))
        return result

    monkeypatch.setattr(cli, "run_solver", kept)
    return solves


def trajectory(result):
    """A solve's final iterate (as bytes) and its checkpoints, without wall times."""
    return result.x.tobytes(), [(p.iter, p.grad_evals, p.error) for p in result.points]


def masked_csv_digest(path):
    """sha256 of a results CSV with its wall_seconds column blanked."""
    lines = path.read_text().splitlines()
    wall = lines[0].split(",").index("wall_seconds")
    rows = [line.split(",") for line in lines]
    for row in rows[1:]:
        row[wall] = ""
    return hashlib.sha256("\n".join(",".join(row) for row in rows).encode()).hexdigest()


def write_sparse_libsvm(path):
    """120 rows over 4 features with one or two slots of each row empty: the
    rows of ``synth_gaussian(120, 4, seed=1)`` without the entries j with
    (i + j) % 3 == 0."""
    data = synth_gaussian(120, 4, seed=1)
    a = data.dense_matrix()
    with open(path, "w", encoding="ascii") as fh:
        for i, (row, y) in enumerate(zip(a.tolist(), data.labels.tolist())):
            feats = " ".join(f"{j + 1}:{v!r}" for j, v in enumerate(row) if (i + j) % 3)
            fh.write(f"{y!r} {feats}\n")


def dataset_flags(tmp_path, source):
    """Flags for a small dataset: synthetic ridge, or LIBSVM logistic."""
    if source == "synth":
        return ("--synth", "30,3,gaussian")
    path = tmp_path / "d.svm"
    data = synth_gaussian(30, 3, seed=1)
    labels = np.where(data.labels >= 0.0, 1.0, -1.0)
    write_libsvm(problem.Dataset(data.indptr, data.indices, data.values, labels, data.d), path)
    return ("--data", str(path), "--loss", "logistic")


def plan_grid_argv():
    """Explicit-profile plans: n in {2, 3, 4, 5, 10, 37, 100}, 4 L_max / mu in
    {0.05n, 0.7n, n - 1, 5n} (at least 4), L_bar / L_max in {1, 0.7}."""
    l_max = 1.3
    for n in (2, 3, 4, 5, 10, 37, 100):
        for cond in (0.05 * n, 0.7 * n, n - 1.0, 5.0 * n):
            for ratio in (1.0, 0.7):
                yield ("plan", "--n", str(n), "--l-max", repr(l_max),
                       "--l-bar", repr(ratio * l_max), "--mu", repr(4.0 * l_max / max(4.0, cond)))


def _profiles_300x4():
    """The true and the planner's uniform profile of ``--synth 300,4,gaussian
    --normalize --seed 1`` with the default ridge lambda."""
    data = problem.normalize_rows(synth_gaussian(300, 4, seed=1))
    profile = problem.smoothness_profile(data, problem.LossSpec("ridge", 1 / 300))
    return profile, problem.SmoothnessProfile.uniform(300, profile.L_max, profile.mu)


# sha256 of every grid plan's stdout, in grid order
PLAN_GRID_DIGESTS = {
    "json": "3549545331cd22ac468c9b85d57872a72b753c5fc31dbdd54432edb0bd21fff5",
    "text": "19c95d915e5c48a24f8ed1a5b8d045a34768e26211492a3c494de694cd008c77",
}

# sha256 of `plan --n N --l-max 1.3 --l-bar 0.91 --mu 0.5 --json` for the
# smallest slates; n = 2 has no full-batch closed form ("full_batch": null)
SMALL_PLAN_DIGESTS = {
    2: "d8bb063d5e02a3da600716a6cdf63927eee95264a7ef3d2cdeaa51139ca8e6d3",
    3: "f95325abec8d1f4cf4ad0d053ed21305f508cd255f96151e789ee104ad76817d",
}


def hand_slate():
    """A slate with every candidate kind, an uncovered row, and +-inf and
    NaN in each float column."""
    inf, nan = float("inf"), float("nan")
    rows = [
        (1, planner.KIND_SAGA_BASELINE, 0.0, 12.4, 0.1923076923076923, True),
        (3, planner.KIND_ONE, 1.0, inf, -inf, True),
        (2, planner.KIND_Q_MINUS, nan, 20.8, 1e-300, False),
        (40, planner.KIND_Q_I1, -inf, nan, inf, True),
        (12345, planner.KIND_Q_I2, inf, -inf, nan, False),
    ]
    return slate_of(rows), rows


def slate_of(rows):
    """The planner's record array of candidate ``rows`` (PlanCandidate field order)."""
    names = [f.name for f in dataclasses.fields(PlanCandidate)]
    return np.rec.fromarrays(list(zip(*rows)), names=names)


def expected_blocks(rows):
    """A slate's JSON block, the ``json.dumps`` of its row dicts joined by ", ",
    and its table block, the f-string lines of the rows joined by newlines."""
    keys = [f.name for f in dataclasses.fields(PlanCandidate)]
    keys[keys.index("q_kind")] = "kind"
    json_block = ", ".join(json.dumps(dict(zip(keys, row)), sort_keys=True) for row in rows)
    text_block = "\n".join(f"{tau:>6} {kind:>14} {q:>12.6g} {omega:>14.6g} {alpha:>12.6g}"
                           for tau, kind, q, omega, alpha, _ in rows)
    return json_block, text_block


def plan_blocks(slate):
    """cmd_plan's JSON block and table block of the ``slate``'s rows."""
    return (cli._plan_rows(cli._JSON_ROW, ", ", [slate[name] for name in cli._JSON_FIELDS],
                           cli._json_values),
            cli._plan_rows(cli._TABLE_ROW, "\n", [slate[name] for name in cli._TABLE_FIELDS]))


PLAN_KINDS = (planner.KIND_SAGA_BASELINE, planner.KIND_ONE, planner.KIND_Q_MINUS,
              planner.KIND_Q_I1, planner.KIND_Q_I2)
EDGE_FLOATS = (-0.0, 0.0, 5e-324, 1e-05, 1e16, float("nan"), float("inf"), float("-inf"))
plan_floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
candidate_rows = st.lists(
    st.tuples(st.integers(1, 10**7), st.sampled_from(PLAN_KINDS), plan_floats, plan_floats,
              plan_floats, st.booleans()),
    min_size=1, max_size=50,
)


class TestPlan:
    @pytest.mark.parametrize(
        "fmt,block_rows",
        [("json", 1), ("json", 7), ("json", cli._PLAN_BLOCK_ROWS),
         ("text", 1), ("text", 7), ("text", cli._PLAN_BLOCK_ROWS)],
        ids=["json-1", "json-7", "json", "text-1", "text-7", "text"],
    )
    def test_plan_output_bytes_pinned(self, capsys, monkeypatch, fmt, block_rows):
        # plan writes its candidate rows a block at a time; every block
        # size gives the same bytes
        monkeypatch.setattr(cli, "_PLAN_BLOCK_ROWS", block_rows)
        digest = hashlib.sha256()
        for argv in plan_grid_argv():
            code, out, err = run_cli(capsys, *argv, *(("--json",) if fmt == "json" else ()))
            assert code == 0 and err == ""
            digest.update(out.encode())
        assert digest.hexdigest() == PLAN_GRID_DIGESTS[fmt]

    @pytest.mark.parametrize("n", sorted(SMALL_PLAN_DIGESTS))
    def test_small_plan_json_bytes_pinned(self, capsys, n):
        code, out, _ = run_cli(capsys, "plan", "--n", str(n), "--l-max", "1.3",
                               "--l-bar", "0.91", "--mu", "0.5", "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == SMALL_PLAN_DIGESTS[n]
        assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"
        assert ('"full_batch": null' in out) == (n == 2)

    def test_row_encoder_matches_json_dumps(self):
        slate, rows = hand_slate()
        assert plan_blocks(slate) == expected_blocks(rows)
        for row in rows:  # one PlanCandidate, as cmd_plan encodes "best"
            best = [np.atleast_1d(getattr(PlanCandidate(*row), name)) for name in cli._JSON_FIELDS]
            got = cli._plan_rows(cli._JSON_ROW, "", best, cli._json_values)
            assert got == expected_blocks([row])[0]

    def test_kinds_need_no_json_escaping(self):
        # _JSON_ROW writes each kind bare inside its quotes
        kinds = [getattr(planner, name) for name in dir(planner) if name.startswith("KIND_")]
        assert sorted(kinds) == sorted(PLAN_KINDS)
        assert all(json.dumps(kind) == f'"{kind}"' for kind in kinds)

    @settings(max_examples=200, deadline=None)
    @given(candidate_rows)
    def test_blocks_match_row_encoders(self, rows):
        # every kind, both covered values, and floats from -0.0 and the
        # subnormals to +-inf and NaN, in blocks of 1 to 50 rows
        assert plan_blocks(slate_of(rows)) == expected_blocks(rows)

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_block_seams_in_plan_output(self, capsys, fmt):
        # n = 5000 writes its slate as three blocks of at most 4096 rows
        json_out = ("--json",) if fmt == "json" else ()
        code, out, _ = run_cli(capsys, "plan", "--n", "5000", "--l-max", "1.3",
                               "--l-bar", "0.91", "--mu", "0.5", *json_out)
        assert code == 0
        if fmt == "json":
            payload = json.loads(out)
            assert len(payload["candidates"]) > 2 * cli._PLAN_BLOCK_ROWS
            assert out == json.dumps(payload, sort_keys=True) + "\n"
        else:  # one line per candidate between the header and the chosen line
            lines = out.splitlines()
            table = lines[[line.split()[0] for line in lines].index("tau") + 1:-1]
            assert len(table) > 2 * cli._PLAN_BLOCK_ROWS
            assert all(len(line.split()) == 5 for line in table)
            assert lines[-1].startswith("chosen:")

    def test_explicit_profile_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "plan", "--n", "1000", "--l-max", "1.001",
            "--l-bar", "1.001", "--mu", "0.002",
        )
        assert code == 0
        assert "chosen:" in out
        saga = 1000 + 4 * 1.001 / 0.002
        chosen = [line for line in out.splitlines() if line.startswith("chosen:")][0]
        omega = float(chosen.split("omega=")[1])
        assert omega <= saga

    def test_explicit_profile_json_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "plan", "--n", "200", "--l-max", "1.0", "--mu", "0.01", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 200
        assert payload["best"]["omega_coef"] <= payload["saga_omega"]
        kinds = {c["kind"] for c in payload["candidates"]}
        assert "SAGA_BASELINE" in kinds and "ONE" in kinds
        taus = [c["tau"] for c in payload["candidates"] if c["kind"] == "ONE"]
        from sagd.planner import optimal_minibatch_tau

        assert optimal_minibatch_tau(200, 0.01, 1.0) in taus

    def test_dataset_plan(self, capsys):
        code, out, _ = run_cli(
            capsys, "plan", "--synth", "120,5,gaussian", "--normalize", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["full_batch"]["regime"] in ("well", "bad")

    def test_incomplete_explicit_profile(self, capsys):
        code, _, err = run_cli(capsys, "plan", "--n", "100", "--mu", "0.1")
        assert code == 2
        assert "l-max" in err

    @pytest.mark.parametrize(
        "flags,named",
        [
            (("--synth", "50,3,gaussian"), "--synth"),
            (("--data", "missing.svm"), "--data"),
            (("--normalize",), "--normalize"),
            (("--lambda", "0.0"), "--lambda"),
            (("--d-override", "5"), "--d-override"),
            (("--synth", "50,3,gaussian", "--normalize", "--lambda", "1e-3"),
             "--synth, --lambda, --normalize"),
        ],
    )
    def test_explicit_plan_rejects_dataset_flags(self, capsys, monkeypatch, flags, named):
        # these only shape a loaded dataset, and an explicit plan loads none
        calls = count_work(monkeypatch)
        monkeypatch.setattr(cli, "optimal_plan", lambda *args: calls.append("plan"))
        explicit = ("--n", "10", "--l-max", "1", "--mu", "0.1")
        code, out, err = run_cli(capsys, "plan", *flags, *explicit)
        assert code == 2 and out == ""
        assert err == f"error: explicit plans take no dataset flags, got {named}\n"
        assert calls == []

    @pytest.mark.parametrize("flags", [(), ("--synth", "50,3,gaussian")])
    def test_l_bar_without_explicit_profile_rejected(self, capsys, monkeypatch, flags):
        # a dataset plan takes L_bar from the data
        calls = count_work(monkeypatch)
        code, out, err = run_cli(capsys, "plan", *flags, "--l-bar", "0.5")
        assert code == 2 and out == ""
        assert err == "error: --l-bar needs --n, --l-max and --mu\n"
        assert calls == []

    @pytest.mark.parametrize(
        "flags",
        [("--l-max", "nan"), ("--l-max", "inf"), ("--l-max", "1.0", "--l-bar", "nan")],
    )
    def test_non_finite_profile_rejected(self, capsys, flags):
        code, out, err = run_cli(capsys, "plan", "--n", "100", "--mu", "0.01", *flags, "--json")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_negative_smoothness_rejected(self, capsys):
        # L_max * (1 + 1e-12) lies below a negative L_max, so the order check alone misreported it
        code, out, err = run_cli(capsys, "plan", "--n", "4", "--l-max", "-1", "--mu", "1")
        assert (code, out) == (2, "")
        assert err == "error: smoothness constants must be finite and >= 0\n"

    @pytest.mark.parametrize("n", [3, 10, 1000])
    def test_calculus_overflow_edge(self, capsys, tmp_path, n):
        # n^2 4 L_max / mu is the calculus's largest product: at L_max = 1
        # the smallest mu that keeps it finite plans without a numpy
        # warning, and the next float down is refused on both paths
        edge = 4.0 * n * n / sys.float_info.max
        while not math.isfinite(4.0 / edge * n * n):
            edge = math.nextafter(edge, math.inf)
        while math.isfinite(4.0 / math.nextafter(edge, 0.0) * n * n):
            edge = math.nextafter(edge, 0.0)
        outside = math.nextafter(edge, 0.0)
        profile = problem.SmoothnessProfile.uniform(n, 1.0, edge)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            best = planner.optimal_plan(profile).best
            assert math.isfinite(best.omega_coef) and best.alpha > 0.0
            assert math.isfinite(planner.plan_q(profile, n)[1])
            assert math.isfinite(planner.plan_tau(profile, 0.5)[1])
            assert math.isfinite(complexity.full_batch_interpolation(profile).omega_coef)
        # logistic rows of squared norm 8 put L_max at 1 + lambda = 1
        path = tmp_path / "edge.svm"
        path.write_text("".join(f"{(-1) ** i} 1:2 2:2\n" for i in range(n)))
        refused = "error: objective is numerically not strongly convex"
        data = ("--data", str(path), "--loss", "logistic", "--lambda")
        for argv in (("plan", "--n", str(n), "--l-max", "1", "--mu", repr(outside)),
                     ("plan", *data, repr(outside)),
                     ("run", *data, repr(outside), "--q", "auto"),
                     ("run", *data, repr(outside), "--q", "0.5", "--tau", "2", "--alpha", "0.1")):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, "") and err.startswith(refused), argv
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(capsys, "plan", *data, repr(edge), "--json")[0] == 0

    @pytest.mark.parametrize("message,shown", [
        ("Unable to allocate 745. GiB for an array", "Unable to allocate 745. GiB for an array"),
        ("", "an allocation failed"),
    ], ids=["numpy", "bare"])
    def test_out_of_memory_exits_2(self, capsys, monkeypatch, message, shown):
        # never a real allocation: under overcommit a huge one may succeed
        def exhausted(profile):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "optimal_plan", exhausted)
        code, out, err = run_cli(capsys, "plan", "--n", "10", "--l-max", "1", "--mu", "0.1")
        assert (code, out, err) == (2, "", f"error: out of memory: {shown}\n")


class TestRun:
    def test_baseline_run_converges(self, capsys, tmp_path):
        out_csv = tmp_path / "res.csv"
        code, out, _ = run_cli(
            capsys, "run", "--synth", "400,5,gaussian", "--normalize",
            "--q", "0", "--tau", "1", "--seed", "3", "--tol", "1e-10",
            "--max-passes", "400", "--out", str(out_csv), "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["runs"][0]["converged"]
        rows = read_results_csv(out_csv)
        assert rows[-1]["error"] <= 1e-10
        assert os.path.exists(f"{out_csv}.manifest.json")

    def test_logistic_synth_labels_signed(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--synth", "200,4,gaussian", "--normalize",
            "--loss", "logistic", "--lambda", "0.05", "--q", "auto", "--tau", "auto",
            "--seed", "2", "--tol", "1e-7", "--max-passes", "400", "--json",
        )
        assert code == 0
        payload = json.loads(out.splitlines()[-1])
        assert payload["runs"][0]["converged"]

    def test_auto_plan_run(self, capsys):
        code, out, err = run_cli(
            capsys, "run", "--synth", "300,4,gaussian", "--normalize",
            "--seed", "1,2", "--tol", "1e-8", "--max-passes", "300", "--json",
        )
        assert code == 0
        assert "plan:" in err  # with --json, stdout holds the JSON document alone
        payload = json.loads(out)
        assert len(payload["runs"]) == 2
        assert all(r["converged"] for r in payload["runs"])

    def test_auto_q_planned_at_the_given_tau(self, capsys):
        # the planner's q* is chosen for its own tau* (17 here); at tau = 40
        # the lower branch root beats it and every other q
        args = ("run", "--synth", "300,4,gaussian", "--normalize", "--seed", "1",
                "--max-passes", "1", "--json")
        _, _, err = run_cli(capsys, *args)
        assert err.startswith("plan: q*=0.98032 tau*=17 ")
        _, out, err = run_cli(capsys, *args, "--tau", "40")
        payload = json.loads(out)
        assert (payload["q"], payload["tau"]) == (planner.branch_roots(40, 300)[0], 40)
        profile, uniform = _profiles_300x4()
        grid = total_complexity(InterpolationConfig(np.linspace(0, 1, 10001), 40, 300), uniform)
        omega = total_complexity(InterpolationConfig(payload["q"], 40, 300), uniform).omega_coef
        assert omega < grid.omega_coef.min()
        assert err == f"plan: q*={payload['q']:.6g} at tau=40 omega={omega:.6g}\n"
        assert payload["alpha"] == stepsize(InterpolationConfig(payload["q"], 40, 300), profile)

    def test_auto_tau_planned_at_the_given_q(self, capsys):
        _, out, err = run_cli(
            capsys, "run", "--synth", "300,4,gaussian", "--normalize", "--seed", "1",
            "--max-passes", "1", "--json", "--q", "0.5",
        )
        payload = json.loads(out)
        _, uniform = _profiles_300x4()
        omega = {t: total_complexity(InterpolationConfig(0.5, t, 300), uniform).omega_coef
                 for t in range(1, 301)}
        assert (payload["q"], payload["tau"]) == (0.5, min(omega, key=omega.get)) == (0.5, 4)
        assert err == f"plan: tau*=4 at q=0.5 omega={omega[4]:.6g}\n"

    def test_profile_computed_once_per_command(self, capsys, monkeypatch):
        # the command's profile feeds the plan, the stepsize and the reference
        calls = count_profiles(monkeypatch)
        code, _, _ = run_cli(
            capsys, "run", "--synth", "120,4,gaussian", "--normalize",
            "--seed", "1", "--tol", "1e-6", "--json",
        )
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_gram_matrix_built_once_per_command(self, capsys, monkeypatch, command):
        # the profile's eigensolve and the ridge reference share one A^T A
        calls = count_work(monkeypatch)
        taus = ("--taus", "1-3") if command == "sweep" else ()
        code, _, _ = run_cli(
            capsys, command, "--synth", "120,4,gaussian", "--normalize", "--q", "0.5",
            *taus, "--seed", "1,2", "--tol", "1e-6", "--json",
        )
        assert code == 0
        assert calls == ["load", 1, "gram", "reference", "table"]

    @pytest.mark.parametrize(
        "argv",
        [("run", "--tau", "2"), ("run", "--tau", "2", "--seed", "1,2,3"),
         ("sweep", "--taus", "1-4"), ("sweep", "--taus", "1-4", "--seed", "1,2")],
    )
    def test_table_filled_once_and_copied_per_solve(self, capsys, monkeypatch, argv):
        # the pipeline fills the table at x0 once, after the reference; every
        # solve but the last takes a copy, and the last the table itself
        calls = count_work(monkeypatch)
        filled, init_table = [], solver.init_table  # count_work's counter

        def fill(*args):
            filled.append(init_table(*args))
            return filled[-1]

        monkeypatch.setattr(solver, "init_table", fill)
        solves = keep_solves(monkeypatch)
        code, _, _ = run_cli(capsys, argv[0], "--synth", "120,4,gaussian", "--normalize",
                             "--q", "0.5", *argv[1:], "--tol", "1e-6", "--json")
        assert code == 0
        assert calls == ["load", 1, "gram", "reference", "table"]
        (table,) = filled
        tables = [t for t, _ in solves]
        assert tables[-1] is table
        for i, t in enumerate(tables[:-1]):
            assert not any(np.shares_memory(t.J, u.J) or np.shares_memory(t.col_sum, u.col_sum)
                           for u in tables[i + 1:])

    @pytest.mark.parametrize(
        "argv,single",
        [(("run", "--tau", "3", "--seed", "1,2,3"),
          [("run", "--tau", "3", "--seed", s) for s in ("1", "2", "3")]),
         (("sweep", "--taus", "2,5", "--seed", "4"),
          [("run", "--tau", t, "--seed", "4") for t in ("2", "5")])],
    )
    def test_solves_sharing_a_table_equal_separate_runs(
        self, capsys, tmp_path, monkeypatch, argv, single
    ):
        # a solve that wrote into the pipeline's table before a later solve
        # copied it would move that later solve's trajectory; a file, since
        # --synth draws its data from the first seed
        write_libsvm(synth_gaussian(120, 4, seed=1), tmp_path / "d.svm")
        flags = ("--data", str(tmp_path / "d.svm"), "--normalize", "--q", "0.5", "--tol", "1e-8")
        solves = keep_solves(monkeypatch)
        assert run_cli(capsys, *argv, *flags, "--json")[0] == 0
        together = [trajectory(r) for _, r in solves]
        solves.clear()
        for alone in single:
            assert run_cli(capsys, *alone, *flags, "--json")[0] == 0
        assert [trajectory(r) for _, r in solves] == together
        assert len(together) == len(single)

    def test_synth_data_drawn_from_first_seed(self, capsys, monkeypatch):
        # seed 2 solves one dataset under --seed 2,1 and --seed 2, and seed
        # 1's dataset under --seed 1,2
        flags = ("--synth", "120,4,gaussian", "--normalize", "--q", "0.5", "--tau", "3",
                 "--tol", "1e-8", "--json")
        solves = keep_solves(monkeypatch)
        for seeds in ("2,1", "2", "1,2"):
            assert run_cli(capsys, "run", *flags, "--seed", seeds)[0] == 0
        listed_first, alone, listed_second = [trajectory(r) for _, r in solves if r.seed == 2]
        assert listed_first == alone
        assert listed_second != alone

    @pytest.mark.parametrize(
        "source,q,binds,digest",
        [
            ("synth", "1", False,
             "05997b2ad57ecdc4f7d6be951d2b6860f8d272f46cbc8c9b7badd28975a21397"),
            ("synth", "0.5", True,
             "9dd2215558990bd3ab5f55fdb2b1868a7147af4a06e660580da6b574c928ab07"),
            ("sparse", "1", True,
             "d09f30029dd219dddfbd07857d7335307e6c2f3a976b4a882b9283d6defde1dd"),
            ("sparse", "0.5", True,
             "59ac5422c2f2fb0ffd718c26101726bd0bb9944bc2566e0875ae36a4868b5a32"),
        ],
    )
    def test_per_sample_kernel_bound_only_when_a_step_uses_it(
        self, capsys, tmp_path, monkeypatch, source, q, binds, digest
    ):
        # q = 1 on dense rows takes every step through the batch kernel; a
        # coin flip or sparse rows need gradient_fn.  The digests (wall time
        # masked) were taken from a solver that bound it on every run; the
        # sparse q = 0.5 one, whose runs take both branches with per-sample
        # minibatch gradients, from a table that recomputed each column's
        # difference on write.
        bound = []
        gradient_fn = solver.gradient_fn
        monkeypatch.setattr(solver, "gradient_fn", lambda *a: bound.append(1) or gradient_fn(*a))
        if source == "sparse":
            write_sparse_libsvm(tmp_path / "d.svm")
            flags = ("--data", str(tmp_path / "d.svm"))
        else:
            flags = ("--synth", "120,4,gaussian")
        out_csv = tmp_path / "res.csv"
        code, _, _ = run_cli(
            capsys, "run", *flags, "--normalize", "--q", q, "--tau", "8", "--seed", "3,4",
            "--tol", "1e-6", "--max-passes", "30", "--out", str(out_csv),
        )
        assert code == 0
        assert bound == ([1, 1] if binds else [])
        assert masked_csv_digest(out_csv) == digest

    @pytest.mark.parametrize(
        "q,digest",
        [
            ("1", "c2cd18e530d21f947317eadbf3bec7aaef4b4109a3cbab08be09b456001d02e8"),
            ("0.5", "c2b93d4e3cb2922a41991ee827aa96fde99c14fc845455ae29d0aa50df7ec702"),
        ],
    )
    def test_dense_logistic_runs_pinned(self, capsys, tmp_path, q, digest):
        # dense logistic minibatch steps take the batch kernel, single-sample
        # steps gradient_fn; the digests (wall time masked) pin both
        out_csv = tmp_path / "res.csv"
        code, _, _ = run_cli(
            capsys, "run", "--synth", "120,4,gaussian", "--normalize", "--loss", "logistic",
            "--q", q, "--tau", "8", "--seed", "3,4", "--tol", "1e-6", "--max-passes", "30",
            "--out", str(out_csv),
        )
        assert code == 0
        assert masked_csv_digest(out_csv) == digest

    @pytest.mark.parametrize(
        "flag,args",
        [
            ("--q", ("run", "--q", "x", "--tau", "2")),
            ("--tau", ("run", "--q", "0.5", "--tau", "2.5")),
            ("--alpha", ("run", "--q", "0.5", "--tau", "2", "--alpha", "abc")),
            ("--q", ("sweep", "--q", "x", "--taus", "1,2")),
            ("--taus", ("sweep", "--q", "0.5", "--taus", "1-x")),
            ("--taus", ("sweep", "--q", "0.5", "--taus", "1,9-3")),
        ],
    )
    def test_bad_number_exits_2(self, capsys, flag, args):
        code, _, err = run_cli(capsys, *args, "--synth", "30,3,gaussian")
        assert code == 2
        assert err.startswith("error:") and flag in err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("source", ["synth", "data"])
    @pytest.mark.parametrize("seeds", ["", ","])
    def test_empty_seed_list_exits_2(self, capsys, tmp_path, command, source, seeds):
        if source == "data":
            path = tmp_path / "d.svm"
            write_libsvm(synth_gaussian(30, 3, seed=1), path)
            flags = ("--data", str(path))
        else:
            flags = ("--synth", "30,3,gaussian")
        taus = ("--taus", "1,2") if command == "sweep" else ()
        out_csv = tmp_path / "res.csv"
        code, out, err = run_cli(
            capsys, command, *flags, "--q", "0.5", *taus, "--seed", seeds,
            "--out", str(out_csv), "--json",
        )
        assert code == 2
        assert err.startswith("error:") and "seed" in err
        assert "runs" not in out and not out_csv.exists()

    @pytest.mark.parametrize("passes", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("flag", ["--max-passes", "--check-every"])
    def test_bad_pass_count_exits_2(self, capsys, flag, passes):
        code, _, err = run_cli(
            capsys, "run", "--synth", "30,3,gaussian", "--q", "0", "--tau", "1", flag, passes,
        )
        assert code == 2
        assert err.startswith("error:") and "passes must be finite and positive" in err

    def test_overflowing_checkpoint_spacing_exits_2(self, capsys):
        # 1e308 passes times n overflows to an infinite number of iterations
        code, _, err = run_cli(
            capsys, "run", "--synth", "30,3,gaussian", "--q", "0", "--tau", "1",
            "--check-every", "1e308",
        )
        assert code == 2
        assert err.startswith("error:") and "checkpoint spacing" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1"])
    def test_bad_tol_exits_2(self, capsys, tol):
        code, out, err = run_cli(capsys, "run", "--synth", "30,3,gaussian", f"--tol={tol}", "--json")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "tol must be finite and positive" in err
        assert f"got {float(tol)}" in err  # names nan or inf

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("source", ["synth", "data"])
    @pytest.mark.parametrize(
        "flag,value",
        [("--max-passes", "0"), ("--check-every", "inf"), ("--tol", "inf"), ("--tol", "nan")],
    )
    def test_budget_checked_before_any_work(
        self, capsys, tmp_path, monkeypatch, command, source, flag, value
    ):
        # no data, profile, plan or reference solution is computed for a bad budget
        flags = dataset_flags(tmp_path, source)
        calls = count_work(monkeypatch)
        taus = ("--taus", "1,2") if command == "sweep" else ()
        code, out, err = run_cli(capsys, command, *flags, *taus, flag, value)
        assert code == 2
        assert err.startswith("error:") and "plan:" not in out + err
        assert calls == []

    @pytest.mark.parametrize("source", ["synth", "data"])
    @pytest.mark.parametrize(
        "argv,work,message",
        [
            (("run", "--alpha", "0"), [], "alpha must be finite and positive, got 0.0"),
            (("run", "--alpha", "-1"), [], "alpha must be finite and positive, got -1.0"),
            (("run", "--alpha", "nan"), [], "alpha must be finite and positive, got nan"),
            (("run", "--alpha", "inf", "--q", "0", "--tau", "1"), [],
             "alpha must be finite and positive, got inf"),
            (("run", "--q", "0.5", "--tau", "31"), ["load"], "need 1 <= tau <= n, got tau=31, n=30"),
            (("run", "--q", "1.5", "--tau", "2"), ["load"], "q must be in [0, 1], got 1.5"),
            (("run", "--q", "1.5"), ["load"], "q must be in [0, 1], got 1.5"),
            (("run", "--tau", "0"), ["load"], "need 1 <= tau <= n, got tau=0, n=30"),
            (("sweep", "--q", "0.5", "--taus", "1,31"), ["load"],
             "need 1 <= tau <= n, got tau=31, n=30"),
            (("sweep", "--q", "-0.5", "--taus", "1,2"), ["load"], "q must be in [0, 1], got -0.5"),
            (("sweep", "--q", "0.5", "--taus", "1-1000000"), ["load"],
             "need 1 <= tau <= n, got tau=31, n=30"),
        ],
    )
    def test_out_of_range_checked_before_any_work(
        self, capsys, tmp_path, monkeypatch, source, argv, work, message
    ):
        # a bad alpha fails before the data is loaded; a bad q or tau right
        # after, and a --taus range is checked before it is expanded
        flags = dataset_flags(tmp_path, source)
        calls = count_work(monkeypatch)
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, argv[0], *flags, *argv[1:])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20
        assert code == 2
        assert err == f"error: {message}\n" and "plan:" not in out
        assert calls == work

    @pytest.mark.parametrize("source", ["synth", "data"])
    def test_plot_without_out_checked_before_any_work(self, capsys, tmp_path, monkeypatch,
                                                      source):
        flags = dataset_flags(tmp_path, source)
        calls = count_work(monkeypatch)
        code, out, err = run_cli(capsys, "run", *flags, "--plot", str(tmp_path / "p.svg"))
        assert code == 2
        assert err == "error: --plot needs --out\n" and "plan:" not in out
        assert calls == []

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("source", ["synth", "data"])
    @pytest.mark.parametrize("seeds", ["-1", "18446744073709551616", "1,-1"])
    def test_seed_range_checked_before_any_work(
        self, capsys, tmp_path, monkeypatch, command, source, seeds
    ):
        # the first bad seed is named before any data is loaded
        bad = seeds.split(",")[-1]
        flags = dataset_flags(tmp_path, source)
        calls = count_work(monkeypatch)
        taus = ("--taus", "1,2") if command == "sweep" else ()
        code, out, err = run_cli(capsys, command, *flags, *taus, "--q", "0.5", "--seed", seeds)
        assert code == 2
        assert err == f"error: seed {bad} is not a 64-bit unsigned integer\n"
        assert "plan:" not in out and calls == []

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("seeds,repeat", [("1,1", "1"), ("3,2,5,2,3", "2")])
    def test_repeated_seed_rejected_before_any_work(
        self, capsys, monkeypatch, command, seeds, repeat
    ):
        # one trajectory run twice would count twice in sweep's and the plot's medians
        calls = count_work(monkeypatch)
        taus = ("--taus", "1,2") if command == "sweep" else ()
        code, out, err = run_cli(
            capsys, command, "--synth", "30,3,gaussian", *taus, "--q", "0.5", "--seed", seeds,
        )
        assert code == 2
        assert err == f"error: seed {repeat} is repeated in {seeds!r}\n"
        assert "plan:" not in out and calls == []

    @pytest.mark.parametrize("source", ["synth", "data"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("run", "--out", "{missing}/x.csv"),
            ("run", "--out", "{tmp}/x.csv", "--plot", "{missing}/p.svg"),
            ("sweep", "--taus", "1,2", "--out", "{missing}/x.csv"),
        ],
    )
    def test_missing_output_directory_checked_before_any_work(
        self, capsys, tmp_path, monkeypatch, source, argv
    ):
        # an unwritable --out or --plot fails before the data, the reference or any solve
        flags = dataset_flags(tmp_path, source)
        calls = count_work(monkeypatch)
        solve = cli.run_solver
        monkeypatch.setattr(
            cli, "run_solver", lambda *a, **k: calls.append("solve") or solve(*a, **k)
        )
        missing = tmp_path / "missing" / "d"
        command, *rest = (a.format(missing=missing, tmp=tmp_path) for a in argv)
        code, out, err = run_cli(capsys, command, *flags, "--q", "0.5", *rest)
        assert code == 2
        assert err == f"error: output directory {str(missing)!r} does not exist\n"
        assert "plan:" not in out and calls == []
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("source", ["synth", "data"])
    @pytest.mark.parametrize(
        "argv,path",
        [
            (("run", "--out", "{tmp}"), "{tmp}"),
            (("run", "--out", "{tmp}/"), "{tmp}/"),
            (("run", "--out", ""), "./"),
            (("run", "--out", "{tmp}/x.csv", "--plot", "{tmp}"), "{tmp}"),
            (("run", "--out", "{tmp}/x.csv", "--plot", ""), "./"),
            (("sweep", "--taus", "1,2", "--out", "{tmp}/"), "{tmp}/"),
            (("sweep", "--taus", "1,2", "--out", ""), "./"),
            (("run", "--out", "{tmp}/x.csv"), "{tmp}/x.csv.manifest.json"),
            (("run", "--out", "x.csv", "--plot", "p.svg"), "./x.csv.manifest.json"),
        ],
    )
    def test_directory_output_path_checked_before_any_work(
        self, capsys, tmp_path, monkeypatch, source, argv, path
    ):
        # an --out, run's manifest beside it or --plot naming a directory
        # ("" resolves to "./") fails before the data, the reference or any
        # solve, not at the write
        flags = dataset_flags(tmp_path, source)
        monkeypatch.delenv("SAGD_OUT_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        path = path.format(tmp=tmp_path)
        os.makedirs(path, exist_ok=True)
        calls = count_work(monkeypatch)
        solve = cli.run_solver
        monkeypatch.setattr(
            cli, "run_solver", lambda *a, **k: calls.append("solve") or solve(*a, **k)
        )
        command, *rest = (a.format(tmp=tmp_path) for a in argv)
        code, out, err = run_cli(capsys, command, *flags, "--q", "0.5", *rest)
        assert code == 2
        assert err == f"error: output path {path!r} is a directory\n"
        assert "plan:" not in out and calls == []
        assert not (tmp_path / "x.csv").exists()

    def test_sweep_writes_no_manifest_and_ignores_its_path(self, capsys, tmp_path):
        (tmp_path / "x.csv.manifest.json").mkdir()
        code, _, _ = run_cli(capsys, "sweep", "--synth", "30,3,gaussian", "--taus", "1,2",
                             "--q", "0.5", "--tol", "1e-6", "--out", str(tmp_path / "x.csv"))
        assert code == 0
        assert (tmp_path / "x.csv").read_text().startswith("tau,median_passes\n")

    @pytest.mark.parametrize("plot", ["{tmp}/x.csv", "{tmp}/x.csv.manifest.json",
                                      "{tmp}/sub/../x.csv"])
    def test_plot_naming_the_results_rejected_before_any_work(self, capsys, tmp_path,
                                                             monkeypatch, plot):
        # the SVG would overwrite the results CSV or its manifest; the paths
        # are compared resolved
        (tmp_path / "sub").mkdir()
        calls = count_work(monkeypatch)
        plot = plot.format(tmp=tmp_path)
        code, out, err = run_cli(capsys, "run", "--synth", "30,3,gaussian", "--q", "0.5",
                                 "--tau", "2", "--out", str(tmp_path / "x.csv"), "--plot", plot)
        assert code == 2 and out == ""
        assert err == (f"error: --plot {plot!r} would overwrite the results CSV "
                       "or its manifest\n")
        assert calls == []
        assert not (tmp_path / "x.csv").exists()

    def test_zero_alpha_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--synth", "50,3,gaussian", "--q", "0", "--tau", "1",
            "--alpha", "0",
        )
        assert code == 2
        assert "alpha" in err

    def test_nonconvergence_exit_code_and_partial_csv(self, capsys, tmp_path):
        out_csv = tmp_path / "res.csv"
        code, _, _ = run_cli(
            capsys, "run", "--synth", "200,4,gaussian", "--normalize",
            "--q", "0", "--tau", "1", "--tol", "1e-14", "--max-passes", "2",
            "--out", str(out_csv),
        )
        assert code == 3
        assert len(read_results_csv(out_csv)) >= 1

    def test_divergence_reported(self, capsys, tmp_path):
        args = ("run", "--synth", "500,10,gaussian", "--normalize", "--q", "0", "--tau", "1",
                "--alpha", "50", "--seed", "1,2")
        out_csv = tmp_path / "res.csv"
        code, out, _ = run_cli(capsys, *args, "--out", str(out_csv))
        assert code == 3
        assert out.count("DIVERGED") == 2
        assert out_csv.read_text().splitlines()[0] == (
            "method,q,tau,seed,iter,grad_evals,effective_passes,wall_seconds,error,lyapunov"
        )
        code, out, _ = run_cli(capsys, *args, "--json")
        assert code == 3
        assert [r["diverged"] for r in json.loads(out)["runs"]] == [True, True]

    @pytest.mark.parametrize("spacing", [(), ("--check-every", "50")])
    def test_divergence_reported_without_warning(self, capsys, spacing):
        # the iterate overflows: inside the norm at the default spacing, inside
        # the single-sample update at 50 passes; no numpy warning may escape
        args = ("run", "--synth", "300,10,gaussian", "--normalize", "--q", "0", "--tau", "1",
                "--alpha", "10", "--seed", "1", *spacing)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, *args)
            assert (code, err) == (3, "")
            assert out.startswith("seed 1: DIVERGED")
            code, out, _ = run_cli(capsys, *args, "--json")
        assert code == 3
        assert [r["diverged"] for r in json.loads(out)["runs"]] == [True]

    def test_plot_output(self, capsys, tmp_path):
        out_csv = tmp_path / "res.csv"
        out_svg = tmp_path / "res.svg"
        code, _, _ = run_cli(
            capsys, "run", "--synth", "200,4,gaussian", "--normalize",
            "--q", "0.5", "--tau", "2", "--seed", "5", "--tol", "1e-8",
            "--max-passes", "300", "--out", str(out_csv), "--plot", str(out_svg),
        )
        assert code == 0
        assert out_svg.read_text().count("<polyline") == 1

    def test_plot_of_diverging_run(self, capsys, tmp_path):
        # the diverged run's inf error is left off the plot, and the run exits 3
        out_csv, out_svg = tmp_path / "x.csv", tmp_path / "x.svg"
        code, out, err = run_cli(
            capsys, "run", "--synth", "50,3,gaussian", "--q", "0", "--tau", "1",
            "--alpha", "1e3", "--seed", "1", "--out", str(out_csv), "--plot", str(out_svg),
        )
        assert (code, err) == (3, "")
        assert "DIVERGED" in out
        assert np.inf in [r["error"] for r in read_results_csv(out_csv)]
        assert out_svg.read_text().count("<polyline") == 1

    def test_byte_identical_reruns_modulo_wall(self, capsys, tmp_path):
        args = (
            "run", "--synth", "150,4,gaussian", "--normalize", "--q", "0.4",
            "--tau", "3", "--seed", "9", "--tol", "1e-8", "--max-passes", "200",
        )
        csv1, csv2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(capsys, *args, "--out", str(csv1))[0] == 0
        assert run_cli(capsys, *args, "--out", str(csv2))[0] == 0
        rows1, rows2 = read_results_csv(csv1), read_results_csv(csv2)
        for r1, r2 in zip(rows1, rows2):
            r1.pop("wall_seconds"), r2.pop("wall_seconds")
            assert r1 == r2


class TestSweep:
    def test_profile_computed_once_per_command(self, capsys, monkeypatch):
        # the command's profile feeds every tau's stepsize and the reference
        calls = count_profiles(monkeypatch)
        code, _, _ = run_cli(
            capsys, "sweep", "--synth", "120,4,gaussian", "--normalize",
            "--q", "0.5", "--taus", "1-4", "--seed", "1,2", "--tol", "1e-6", "--json",
        )
        assert code == 0
        assert len(calls) == 1

    def test_single_tau_matches_run(self, capsys, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        code, out, _ = run_cli(
            capsys, "sweep", "--synth", "200,4,gaussian", "--normalize",
            "--q", "1.0", "--taus", "2", "--seed", "1,2,3", "--tol", "1e-8",
            "--out", str(out_csv), "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert [r["tau"] for r in payload["rows"]] == [2]
        assert out_csv.read_text().splitlines()[0] == "tau,median_passes"

    def test_divergence_reported(self, capsys, monkeypatch):
        # the theoretical stepsizes never diverge; scale tau 3's up until it does
        stepsize = cli.stepsize
        monkeypatch.setattr(cli, "stepsize", lambda *a: stepsize(*a) * np.array([1.0, 1.0, 100.0]))
        args = ("sweep", "--synth", "200,4,gaussian", "--normalize", "--q", "1.0",
                "--taus", "1-3", "--seed", "1,2", "--tol", "1e-6")
        code, out, _ = run_cli(capsys, *args, "--json")
        assert code == 3
        assert [r["diverged"] for r in json.loads(out)["rows"]] == [[], [], [1, 2]]
        code, out, _ = run_cli(capsys, *args)
        assert code == 3
        assert [line for line in out.splitlines() if "DIVERGED" in line] == [
            "tau=    3  median passes=inf  DIVERGED (seeds 1, 2)"
        ]

    def test_tau_range_parsing(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--synth", "150,4,gaussian", "--normalize",
            "--q", "1.0", "--taus", "1,2,4-6", "--seed", "1", "--tol", "1e-6",
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert [r["tau"] for r in payload["rows"]] == [1, 2, 4, 5, 6]

    SWEEP_120 = ("sweep", "--synth", "120,12,gaussian", "--normalize", "--seed", "1",
                 "--taus", "1-4")

    def test_explicit_q_reports_the_best_tau_at_that_q(self, capsys):
        # the planner's tau at q = 1 is 2; optimal_plan's tau* (at q* ~ 0.196) is 4
        args = cli.build_parser().parse_args(self.SWEEP_120)
        data, loss, _ = cli._load_dataset(args, seed=1)
        profile = problem.smoothness_profile(data, loss)
        assert planner.plan_tau(profile, 1.0)[0] == 2
        code, out, _ = run_cli(capsys, *self.SWEEP_120, "--q", "1", "--json")
        assert code == 0
        assert json.loads(out)["planner_tau"] == 2
        code, out, _ = run_cli(capsys, *self.SWEEP_120, "--q", "1")
        assert code == 0
        assert out.splitlines()[-1].endswith("; planner tau*: 2")
        code, out, _ = run_cli(capsys, *self.SWEEP_120, "--q", "auto", "--json")
        assert code == 0
        assert json.loads(out)["planner_tau"] == planner.optimal_plan(profile).best.tau == 4

    @pytest.mark.parametrize("q", ["0.5", "1"])
    def test_planner_tau_is_runs_planned_tau(self, capsys, q):
        # sweep plans tau as run --tau auto does, and prints no plan line
        data = ("--synth", "120,12,gaussian", "--normalize", "--seed", "1", "--q", q)
        code, out, _ = run_cli(capsys, "run", *data, "--tau", "auto", "--max-passes", "1")
        assert code == 3
        planned = int(re.fullmatch(r"plan: tau\*=(\d+) at q=.*", out.splitlines()[0])[1])
        code, out, err = run_cli(capsys, "sweep", *data, "--taus", "1", "--max-passes", "1",
                                 "--json")
        assert code == 3 and err == ""
        assert json.loads(out)["planner_tau"] == planned

    def test_one_sample_dataset_sweeps(self, capsys, tmp_path):
        # planning tau at an explicit q needs no n >= 2, as for run --tau auto
        path = tmp_path / "one.svm"
        path.write_text("1 1:0.5 2:-1.25\n", encoding="ascii")
        flags = ("--data", str(path), "--q", "0.5", "--json")
        assert run_cli(capsys, "run", *flags, "--tau", "auto")[0] == 0
        code, out, _ = run_cli(capsys, "sweep", *flags, "--taus", "1")
        assert code == 0
        assert json.loads(out)["planner_tau"] == 1

    @pytest.mark.parametrize("flag", [("--alpha", "0.1"), ("--plot", "x.svg")])
    def test_run_only_flags_rejected(self, capsys, monkeypatch, flag):
        # the sweep parser's tau, alpha and plot defaults add no flag
        calls = count_work(monkeypatch)
        code, out, err = run_cli(capsys, "sweep", "--synth", "30,3,gaussian", "--taus", "1,2",
                                 *flag)
        assert code == 2 and out == ""
        assert f"unrecognized arguments: {' '.join(flag)}" in err
        assert calls == []


class TestVerify:
    def test_default_grid_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n-max", "5")
        assert code == 0
        assert out.count("PASS") == 2 and "FAIL" not in out

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n-max", "4", "--json")
        assert code == 0
        payload = json.loads(out)
        assert all(suite["passed"] for suite in payload)

    def test_json_bytes_pinned(self, capsys):
        # verdicts, check counts and failure lists; only wall time may change
        code, out, _ = run_cli(capsys, "verify", "--n-max", "5", "--json")
        assert code == 0
        masked = re.sub(r'"elapsed": [^,}]+', '"elapsed": null', out)
        assert masked.count('"elapsed": null') == 2
        assert hashlib.sha256(masked.encode()).hexdigest() == (
            "8a5726adacb5edc1e5676f26bb2f225f2ad916e17ba7ea6b5d76a2f333d79e89"
        )

    @pytest.mark.parametrize("n_max", ["1", "0", "-3", "13"])
    def test_degenerate_grid_rejected(self, capsys, n_max):
        code, out, err = run_cli(capsys, "verify", "--n-max", n_max)
        assert code == 2
        assert "PASS" not in out
        assert err.startswith("error:")

    def test_perturbed_residual_detected(self, capsys, monkeypatch):
        # a perturbed closed form in sagd.complexity must fail and list the tuples
        from sagd.complexity import sketch_residual

        monkeypatch.setattr(complexity, "sketch_residual", lambda cfg: sketch_residual(cfg) + 1e-3)
        code, out, _ = run_cli(capsys, "verify", "--n-max", "4")
        assert code == cli.EXIT_VERIFY_FAIL
        assert out.startswith("FAIL constants-vs-oracles")
        assert "\n  residual(n=2,tau=1,q=0.00)\n" in out


class TestParsing:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert cli.main(["frobnicate"]) == 2

    def test_parser_built_once_per_process(self, capsys, monkeypatch):
        # a usage error, --help and a valid plan share one parser and print
        # what each prints on a parser of its own
        argvs = [("plan", "--n", "x"), ("--help",),
                 ("plan", "--n", "10", "--l-max", "1", "--mu", "0.1")]
        fresh = []
        for argv in argvs:
            cli._parser.cache_clear()
            fresh.append(run_cli(capsys, *argv))
        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        cli._parser.cache_clear()
        shared = [run_cli(capsys, *argv) for argv in argvs]
        cli._parser.cache_clear()
        assert [code for code, _, _ in shared] == [2, 0, 0]
        assert shared == fresh
        assert len(builds) == 1

    def test_bad_synth_spec(self, capsys):
        code, _, err = run_cli(capsys, "plan", "--synth", "10")
        assert code == 2

    @pytest.mark.parametrize("argv,message", [
        (("sweep", "--synth", "30,3,gaussian", "--taus", "1-26", "--tau", "3"),
         "unrecognized arguments: --tau 3"),
        (("run", "--synth", "30,3,gaussian", "--max-p", "5"), "unrecognized arguments: --max-p 5"),
        (("--he",), "the following arguments are required: command"),
    ], ids=["sweep-tau", "run-max-p", "top-he"])
    def test_flag_prefixes_rejected(self, capsys, monkeypatch, argv, message):
        # flags are spelled in full: sweep has no --tau, and no flag answers
        # to a prefix, the top-level --help included
        calls = count_work(monkeypatch)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert message in err
        assert calls == []

    @pytest.mark.parametrize("command", ["plan", "run", "sweep"])
    @pytest.mark.parametrize("source", [(), ("--synth", "30,3,gaussian")])
    def test_d_override_needs_data(self, capsys, monkeypatch, command, source):
        # --d-override only shapes a parsed LIBSVM file
        calls = count_work(monkeypatch)
        taus = ("--taus", "1,2") if command == "sweep" else ()
        code, out, err = run_cli(capsys, command, *source, "--d-override", "5", *taus)
        assert code == 2 and out == ""
        assert err == "error: --d-override needs --data\n"
        assert calls == []

    def test_out_dir_env_var(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SAGD_OUT_DIR", str(tmp_path))
        code, _, _ = run_cli(
            capsys, "run", "--synth", "60,3,gaussian", "--normalize",
            "--q", "0", "--tau", "1", "--seed", "4", "--tol", "1e-6",
            "--max-passes", "200", "--out", "env_results.csv",
        )
        assert code == 0
        assert (tmp_path / "env_results.csv").exists()


class TestModuleEntryPoint:
    @staticmethod
    def _python(*args):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        ))
        return subprocess.run(
            [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
        )

    @pytest.mark.parametrize("module", ["sagd", "sagd.cli"])
    def test_verify_runs(self, module):
        proc = self._python("-m", module, "verify", "--n-max", "2")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("PASS") == 2

    def test_invalid_plan_exits_2(self):
        proc = self._python("-m", "sagd", "plan", "--n", "1", "--l-max", "1", "--mu", "0.1")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")

    def test_dense_logistic_run_leaves_scipy_special_unloaded(self):
        # every q = 1 step takes the batch kernel, whose loss derivative is
        # problem.loss_derivative's libm exp
        script = (
            "import sys; from sagd.cli import main; "
            "code = main(['run', '--synth', '120,4,gaussian', '--loss', 'logistic', "
            "'--q', '1', '--tau', '8', '--tol', '1e-6']); "
            "print(code, 'scipy.special' in sys.modules)"
        )
        proc = self._python("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 False"
