import functools
import hashlib
from collections import Counter

import numpy as np

from reference_methods import (
    loop_expected_projection,
    loop_residual_eigenvalues,
    loop_smoothness_max_term,
)
from sagd import sketch_oracle
from sagd.complexity import (
    InterpolationConfig,
    expected_smoothness,
    residual_term,
    sketch_residual,
    theta,
    total_complexity,
)
from sagd.numerics import SeededRng
from sagd.problem import SmoothnessProfile
from sagd.verification import (
    ORACLE_SEED,
    Q_GRID,
    SuiteResult,
    _envelopes,
    check_constants_against_oracles,
    check_envelope_shapes,
    run_all,
)


class TestConstantsSuite:
    def test_passes_on_small_grid(self):
        result = check_constants_against_oracles(n_max=5)
        assert result.passed
        assert result.checks == sum(n * 21 for n in range(2, 6))
        assert result.failures == []

    def test_perturbed_residual_listed_with_tuples(self):
        result = check_constants_against_oracles(
            n_max=4, rho_fn=lambda cfg: sketch_residual(cfg) * (1 + 1e-6) + 1e-6
        )
        assert not result.passed
        assert any(f.startswith("residual(n=") for f in result.failures)
        # untouched quantities must not be blamed
        assert not any(f.startswith("theta(") for f in result.failures)

    def test_perturbed_smoothness_detected(self):
        from sagd.complexity import expected_smoothness

        result = check_constants_against_oracles(
            n_max=3,
            levels_per_pair=3,
            smoothness_fn=lambda cfg, prof: expected_smoothness(cfg, prof) + 1e-5,
        )
        assert not result.passed
        assert any(f.startswith("smoothness(") for f in result.failures)

    def test_perturbed_theta_detected(self):
        from sagd.complexity import theta

        result = check_constants_against_oracles(
            n_max=3, levels_per_pair=2, theta_fn=lambda cfg: theta(cfg) * (1 + 1e-9)
        )
        assert not result.passed
        assert any(f.startswith("theta(") for f in result.failures)
        assert not any(f.startswith("residual(") for f in result.failures)

    def test_perturbed_theta_fails_projector_mean(self):
        # the enumerated projector mean is held to I / theta of the closed
        # form (unbiasedness), not to the theta read off that same mean
        result = check_constants_against_oracles(
            n_max=3, levels_per_pair=2, theta_fn=lambda cfg: theta(cfg) * (1 + 1e-9)
        )
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

    def test_perturbed_constants_runs(self):
        runs = [
            check_constants_against_oracles(
                n_max=4, rho_fn=lambda cfg: sketch_residual(cfg) * (1 + 1e-6) + 1e-6
            ),
            check_constants_against_oracles(
                n_max=3, levels_per_pair=3,
                smoothness_fn=lambda cfg, prof: expected_smoothness(cfg, prof) + 1e-5,
            ),
            check_constants_against_oracles(
                n_max=3, levels_per_pair=2, theta_fn=lambda cfg: theta(cfg) * (1 + 1e-9)
            ),
        ]
        assert [self._pin(r) for r in runs] == [
            (189, 189, "ba727c44e66af2221bf2ee42abb69d11a17a921ee4155d1bda9b802d98a23684"),
            (105, 315, "ae201ba83eaee5b0f64a54c3e34729e617650ab086d92ee7e8f29f751c95fa66"),
            (105, 210, "bfedc8c459a529ded83455c448e746a31c1180bf9e490a6fb95c871899f5bf9a"),
        ]

    def test_perturbed_envelope_run(self):
        result = check_envelope_shapes(n_values=(10,), taus_per_n=4, rho_fn=_warped_residual)
        assert self._pin(result) == (
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

        result = check_constants_against_oracles(
            n_max=self.N_MAX, levels_per_pair=self.LEVELS, smoothness_fn=smoothness
        )
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
    def test_passes_on_small_grid(self):
        result = check_envelope_shapes(n_values=(10, 50), taus_per_n=6)
        assert result.passed, result.failures[:5]
        assert result.checks > 0

    def test_grid_rows_equal_per_tau_envelopes_bitwise(self):
        n, taus = 100, np.array([4, 5, 8, 31, 100])
        profile = SmoothnessProfile.uniform(n, 1.0, 4.0 / (0.5 * (n - 1)))
        qs, g_smooth, g_resid = _envelopes(n, taus, profile, sketch_residual)
        assert g_smooth.shape == g_resid.shape == (taus.size, qs.size)
        for k, tau in enumerate(taus.tolist()):
            cfg = InterpolationConfig(q=qs, tau=tau, n=n)
            rho = sketch_residual(cfg)
            assert g_smooth[k].tobytes() == total_complexity(cfg, profile).smoothness_term.tobytes()
            want = residual_term(theta(cfg), rho, profile.L_max, profile.mu, n, cfg.cost_per_iter)
            assert g_resid[k].tobytes() == want.tobytes()
            assert g_resid[k].tobytes() == total_complexity(cfg, profile).residual_term.tobytes()

    def test_perturbed_residual_breaks_shapes(self):
        result = check_envelope_shapes(n_values=(10,), taus_per_n=4, rho_fn=_warped_residual)
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
