import dataclasses
import functools
import hashlib
from collections import Counter

import numpy as np

from reference_methods import (
    loop_expected_projection,
    loop_residual_eigenvalues,
    loop_smoothness_max_term,
)
from sagd import complexity, sketch_oracle
from sagd.complexity import (
    InterpolationConfig,
    expected_smoothness,
    sketch_residual,
    theta,
    total_complexity,
)
from sagd import verification
from sagd.numerics import SeededRng
from sagd.problem import SmoothnessProfile
from sagd.verification import (
    ORACLE_SEED,
    Q_GRID,
    SuiteResult,
    check_constants_against_oracles,
    check_envelope_shapes,
    run_all,
)


def _perturbed_residual(cfg):
    return sketch_residual(cfg) * (1 + 1e-6) + 1e-6


def _perturbed_smoothness(cfg, profile):
    return expected_smoothness(cfg, profile) + 1e-5


def _perturbed_theta(cfg):
    return theta(cfg) * (1 + 1e-9)


class TestConstantsSuite:
    def test_passes_on_small_grid(self):
        result = check_constants_against_oracles(n_max=5)
        assert result.passed
        assert result.checks == sum(n * 21 for n in range(2, 6))
        assert result.failures == []

    def test_perturbed_residual_listed_with_tuples(self, monkeypatch):
        monkeypatch.setattr(complexity, "sketch_residual", _perturbed_residual)
        result = check_constants_against_oracles(n_max=4)
        assert not result.passed
        assert any(f.startswith("residual(n=") for f in result.failures)
        # untouched quantities must not be blamed
        assert not any(f.startswith("theta(") for f in result.failures)

    def test_perturbed_smoothness_detected(self, monkeypatch):
        monkeypatch.setattr(verification, "LEVELS_PER_PAIR", 3)
        monkeypatch.setattr(complexity, "expected_smoothness", _perturbed_smoothness)
        result = check_constants_against_oracles(n_max=3)
        assert not result.passed
        assert any(f.startswith("smoothness(") for f in result.failures)

    def test_perturbed_theta_detected(self, monkeypatch):
        monkeypatch.setattr(verification, "LEVELS_PER_PAIR", 2)
        monkeypatch.setattr(complexity, "theta", _perturbed_theta)
        result = check_constants_against_oracles(n_max=3)
        assert not result.passed
        assert any(f.startswith("theta(") for f in result.failures)
        assert not any(f.startswith("residual(") for f in result.failures)

    def test_perturbed_theta_fails_projector_mean(self, monkeypatch):
        # the enumerated projector mean is held to I / theta of the closed
        # form (unbiasedness), not to the theta read off that same mean
        monkeypatch.setattr(verification, "LEVELS_PER_PAIR", 2)
        monkeypatch.setattr(complexity, "theta", _perturbed_theta)
        result = check_constants_against_oracles(n_max=3)
        assert "projector-mean(n=2,tau=1,q=0.00)" in result.failures
        assert {f.split("(")[0] for f in result.failures} == {"theta", "projector-mean"}


def _warped_residual(cfg):
    # a residual warped toward +q^3 curvature violates monotonicity/concavity
    return sketch_residual(cfg) + 50.0 * cfg.q**3 * (1 - cfg.q) ** 0.5


class TestFailurePins:
    """Failure strings, their order and the check counts of the perturbed
    runs, pinned by digest: the suites may change how they compute, not what
    they report."""

    @staticmethod
    def _pin(result):
        digest = hashlib.sha256("\n".join(result.failures).encode()).hexdigest()
        return result.checks, len(result.failures), digest

    def test_perturbed_constants_runs(self, monkeypatch):
        runs = []
        for name, perturbed, n_max, levels in (
                ("sketch_residual", _perturbed_residual, 4, verification.LEVELS_PER_PAIR),
                ("expected_smoothness", _perturbed_smoothness, 3, 3),
                ("theta", _perturbed_theta, 3, 2)):
            with monkeypatch.context() as patch:
                patch.setattr(verification, "LEVELS_PER_PAIR", levels)
                patch.setattr(complexity, name, perturbed)
                runs.append(check_constants_against_oracles(n_max=n_max))
        assert [self._pin(r) for r in runs] == [
            (189, 189, "ba727c44e66af2221bf2ee42abb69d11a17a921ee4155d1bda9b802d98a23684"),
            (105, 315, "ae201ba83eaee5b0f64a54c3e34729e617650ab086d92ee7e8f29f751c95fa66"),
            (105, 210, "bfedc8c459a529ded83455c448e746a31c1180bf9e490a6fb95c871899f5bf9a"),
        ]

    def test_perturbed_envelope_run(self, monkeypatch):
        monkeypatch.setattr(verification, "ENVELOPE_NS", (10,))
        monkeypatch.setattr(verification, "TAUS_PER_N", 4)
        monkeypatch.setattr(complexity, "sketch_residual", _warped_residual)
        result = check_envelope_shapes()
        assert self._pin(result) == (
            27, 29, "4ea70f25f1213c2def7c00f1d168c2a139e15cb2bc1413741bb8aa0707906ccf"
        )
        # the warped residual also reaches the intersection gaps, through
        # total_complexity; the other failures, in order, are the shape failures
        shapes = [f for f in result.failures if not f.startswith("intersection-gap(n=10,")]
        assert self._pin(SuiteResult("shapes", False, 27, shapes)) == (
            27, 14, "d3563712a3f8d917faa5faae78879f4fbb38f981ce228b40455664bee9fd51f7"
        )


def _record(monkeypatch, name, log):
    """Wrap ``sketch_oracle.<name>`` so each call appends (args, result) to log."""
    original = getattr(sketch_oracle, name)

    def wrapped(*args):
        out = original(*args)
        log.append((args, out))
        return out

    monkeypatch.setattr(sketch_oracle, name, wrapped)


class TestConstantsSuiteEnumeratesOnce:
    """One enumeration per (n, tau) over the whole q grid, and every oracle
    array the suite compares equals the one-atom-at-a-time loops and the
    scalar public oracles bit for bit."""

    N_MAX = 6
    LEVELS = 20
    ORACLES = ("enumerate_sampling", "oracle_expected_projection", "oracle_residual_eigenvalues",
               "oracle_smoothness_max_term", "assemble_expected_smoothness")

    def _run(self, monkeypatch):
        builds = []
        build = sketch_oracle.atom_rows.__wrapped__

        def recorded_build(n, tau):
            builds.append((n, tau))
            return build(n, tau)

        monkeypatch.setattr(sketch_oracle, "atom_rows", functools.cache(recorded_build))
        logs = {name: [] for name in self.ORACLES}
        for name, log in logs.items():
            _record(monkeypatch, name, log)
        closed = []

        def smoothness(cfg, stack):
            out = expected_smoothness(cfg, stack)
            closed.append((cfg, out))
            return out

        monkeypatch.setattr(verification, "LEVELS_PER_PAIR", self.LEVELS)
        monkeypatch.setattr(complexity, "expected_smoothness", smoothness)
        result = check_constants_against_oracles(n_max=self.N_MAX)
        monkeypatch.undo()
        assert result.passed
        pairs = [(n, tau) for n in range(2, self.N_MAX + 1) for tau in range(1, n + 1)]
        return pairs, builds, logs, closed

    def test_each_pair_enumerated_once(self, monkeypatch):
        pairs, builds, logs, closed = self._run(monkeypatch)
        assert Counter(builds) == Counter(pairs)
        assert logs["enumerate_sampling"] == []
        qs = np.asarray(Q_GRID, float)
        for name in ("oracle_expected_projection", "oracle_residual_eigenvalues"):
            assert [args[:2] for args, _ in logs[name]] == pairs
            assert all(args[2].tobytes() == qs.tobytes() for args, _ in logs[name])
        assert [tau for (_, tau), _ in logs["oracle_smoothness_max_term"]] == [t for _, t in pairs]
        # the stack of a pair is the level sets drawn one at a time, in order
        rng = SeededRng(ORACLE_SEED)
        for (n, _), ((levels, _), _) in zip(pairs, logs["oracle_smoothness_max_term"]):
            drawn = np.array([0.5 + rng.uniforms(n) for _ in range(self.LEVELS)])
            assert levels.tobytes() == drawn.tobytes()
            assert len({lv.tobytes() for lv in levels}) == self.LEVELS
        assert len(logs["assemble_expected_smoothness"]) == len(closed) == len(pairs)

    def test_oracle_arrays_match_loops_and_scalar_oracles_bitwise(self, monkeypatch):
        pairs, _, logs, closed = self._run(monkeypatch)
        projections = logs["oracle_expected_projection"]
        eigenvalues = logs["oracle_residual_eigenvalues"]
        max_terms = logs["oracle_smoothness_max_term"]
        assembled = logs["assemble_expected_smoothness"]
        for k, (n, tau) in enumerate(pairs):
            levels, tops = max_terms[k][0][0], max_terms[k][1]
            for j, lv in enumerate(levels):
                assert tops[j] == loop_smoothness_max_term(lv, tau)
                assert tops[j] == sketch_oracle.oracle_smoothness_max_term(lv, tau)
            (_, _, _, c, top_col, l_max), l1 = assembled[k]
            assert top_col[:, 0].tobytes() == tops.tobytes()
            assert l_max[:, 0].tolist() == [float(lv.max()) for lv in levels]
            cfg, l1_closed = closed[k]
            for j, lv in enumerate(levels):
                profile = SmoothnessProfile(lv.size, float(lv.max()), float(lv.mean()), 1e-3,
                                            "lambda-lower-bound")
                assert l1_closed[j].tobytes() == expected_smoothness(cfg, profile).tobytes()
            for i, q in enumerate(Q_GRID):
                mean = projections[k][1][i]
                assert mean.tobytes() == loop_expected_projection(n, tau, q).tobytes()
                assert mean.tobytes() == sketch_oracle.oracle_expected_projection(n, tau, q).tobytes()
                w = eigenvalues[k][1][i]
                assert w.tobytes() == loop_residual_eigenvalues(n, tau, q).tobytes()
                assert w.tobytes() == sketch_oracle.oracle_residual_eigenvalues(n, tau, q).tobytes()
                assert c[i] == sketch_oracle.oracle_bias_correction(n, tau, q)
                for j, lv in enumerate(levels):
                    assert l1[j, i] == sketch_oracle.oracle_expected_smoothness(n, tau, q, lv)


class TestEnvelopeSuite:
    def test_passes_on_small_grid(self, monkeypatch):
        monkeypatch.setattr(verification, "ENVELOPE_NS", (10, 50))
        monkeypatch.setattr(verification, "TAUS_PER_N", 6)
        result = check_envelope_shapes()
        assert result.passed, result.failures[:5]
        assert result.checks > 0

    def test_grid_rows_equal_per_tau_calls_bitwise(self, monkeypatch):
        # each (n, condition scale) reads its envelopes off one total_complexity
        # call on the (taus, q) grid; each row is the per-tau call, bit for bit
        calls = []

        def recorded(cfg, profile):
            out = total_complexity(cfg, profile)
            calls.append((cfg, profile, out))
            return out

        monkeypatch.setattr(complexity, "total_complexity", recorded)
        monkeypatch.setattr(verification, "ENVELOPE_NS", (10, 100))
        monkeypatch.setattr(verification, "TAUS_PER_N", 6)
        assert check_envelope_shapes().passed
        monkeypatch.undo()
        grids = [call for call in calls if np.ndim(call[0].tau) == 2]
        assert len(grids) == 2 * len(verification.COND_SCALES)
        for cfg, profile, out in grids:
            assert out.residual_term.shape == (cfg.tau.shape[0], cfg.q.size)
            for k, tau in enumerate(cfg.tau[:, 0].tolist()):
                one = total_complexity(InterpolationConfig(q=cfg.q, tau=tau, n=cfg.n), profile)
                for field in dataclasses.fields(one):
                    want = getattr(one, field.name).tobytes()
                    assert getattr(out, field.name)[k].tobytes() == want, field.name

    def test_perturbed_residual_breaks_shapes(self, monkeypatch):
        monkeypatch.setattr(verification, "ENVELOPE_NS", (10,))
        monkeypatch.setattr(verification, "TAUS_PER_N", 4)
        monkeypatch.setattr(complexity, "sketch_residual", _warped_residual)
        result = check_envelope_shapes()
        assert not result.passed


class TestRunAll:
    def test_returns_both_suites(self):
        results = run_all(n_max=4)
        assert [r.name for r in results] == ["constants-vs-oracles", "envelope-shapes"]
        assert all(r.passed for r in results)

    def test_summary_lines(self):
        good = SuiteResult(name="demo", passed=True, checks=3, elapsed=0.5)
        bad = SuiteResult(name="demo", passed=False, checks=3, failures=["x"], elapsed=0.5)
        assert good.summary().startswith("PASS demo")
        assert bad.summary().startswith("FAIL demo")
        assert "1 failures" in bad.summary()
