import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sagd import cli, problem, solver
from sagd.data_io import read_results_csv, synth_gaussian, write_libsvm
from sagd.verification import check_constants_against_oracles


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


class TestPlan:
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
        "flags",
        [("--l-max", "nan"), ("--l-max", "inf"), ("--l-max", "1.0", "--l-bar", "nan")],
    )
    def test_non_finite_profile_rejected(self, capsys, flags):
        code, out, err = run_cli(capsys, "plan", "--n", "100", "--mu", "0.01", *flags, "--json")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


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

    def test_profile_computed_once_per_command(self, capsys, monkeypatch):
        # the command's profile feeds the plan, the stepsize and the reference
        calls = count_profiles(monkeypatch)
        code, _, _ = run_cli(
            capsys, "run", "--synth", "120,4,gaussian", "--normalize",
            "--seed", "1", "--tol", "1e-6", "--json",
        )
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "flag,args",
        [
            ("--q", ("run", "--q", "x", "--tau", "2")),
            ("--tau", ("run", "--q", "0.5", "--tau", "2.5")),
            ("--alpha", ("run", "--q", "0.5", "--tau", "2", "--alpha", "abc")),
            ("--q", ("sweep", "--q", "x", "--taus", "1,2")),
            ("--taus", ("sweep", "--q", "0.5", "--taus", "1-x")),
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
        # no profile, plan or reference solution is computed for a bad budget
        calls = count_profiles(monkeypatch)
        monkeypatch.setattr(cli, "exact_solution", lambda *a, **k: calls.append("reference"))
        if source == "data":
            path = tmp_path / "d.svm"
            data = synth_gaussian(30, 3, seed=1)
            labels = np.where(data.labels >= 0.0, 1.0, -1.0)
            write_libsvm(problem.Dataset(data.indptr, data.indices, data.values, labels, data.d),
                         path)
            flags = ("--data", str(path), "--loss", "logistic")
        else:
            flags = ("--synth", "30,3,gaussian")
        taus = ("--taus", "1,2") if command == "sweep" else ()
        code, out, err = run_cli(capsys, command, *flags, *taus, flag, value)
        assert code == 2
        assert err.startswith("error:") and "plan:" not in out + err
        assert calls == []

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

    def test_tau_range_parsing(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--synth", "150,4,gaussian", "--normalize",
            "--q", "1.0", "--taus", "1,2,4-6", "--seed", "1", "--tol", "1e-6",
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert [r["tau"] for r in payload["rows"]] == [1, 2, 4, 5, 6]


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

    @pytest.mark.parametrize("n_max", ["1", "0", "-3"])
    def test_degenerate_grid_rejected(self, capsys, n_max):
        code, out, err = run_cli(capsys, "verify", "--n-max", n_max)
        assert code == 2
        assert "PASS" not in out
        assert err.startswith("error:")

    def test_perturbed_residual_detected(self):
        # injecting a perturbed closed form must fail and list the tuples
        from sagd.complexity import sketch_residual

        result = check_constants_against_oracles(
            n_max=4, rho_fn=lambda cfg: sketch_residual(cfg)[0] + 1e-3
        )
        assert not result.passed
        assert any(f.startswith("residual(") for f in result.failures)


class TestParsing:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert cli.main(["frobnicate"]) == 2

    def test_bad_synth_spec(self, capsys):
        code, _, err = run_cli(capsys, "plan", "--synth", "10")
        assert code == 2

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
    def _python_m(*args):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        ))
        return subprocess.run(
            [sys.executable, "-m", *args], capture_output=True, text=True, env=env, timeout=120
        )

    @pytest.mark.parametrize("module", ["sagd", "sagd.cli"])
    def test_verify_runs(self, module):
        proc = self._python_m(module, "verify", "--n-max", "2")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("PASS") == 2

    def test_invalid_plan_exits_2(self):
        proc = self._python_m("sagd", "plan", "--n", "1", "--l-max", "1", "--mu", "0.1")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
