from collections import Counter

from sagd import sketch_oracle
from sagd.complexity import sketch_residual
from sagd.verification import (
    Q_GRID,
    SuiteResult,
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
            n_max=4, rho_fn=lambda cfg: sketch_residual(cfg)[0] * (1 + 1e-6) + 1e-6
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


def _record(monkeypatch, name, log):
    """Wrap ``sketch_oracle.<name>`` so each call appends (args, result) to log."""
    original = getattr(sketch_oracle, name)

    def wrapped(*args):
        out = original(*args)
        log.append((args, out))
        return out

    monkeypatch.setattr(sketch_oracle, name, wrapped)


class TestConstantsSuiteEnumeratesOnce:
    N_MAX = 4
    LEVELS = 20

    def _run(self, monkeypatch):
        logs = {name: [] for name in (
            "enumerate_sampling", "oracle_smoothness_max_term", "assemble_expected_smoothness"
        )}
        for name, log in logs.items():
            _record(monkeypatch, name, log)
        result = check_constants_against_oracles(n_max=self.N_MAX, levels_per_pair=self.LEVELS)
        monkeypatch.undo()
        assert result.passed
        return logs

    def test_call_counts(self, monkeypatch):
        logs = self._run(monkeypatch)
        enumerations = Counter(args for args, _ in logs["enumerate_sampling"])
        triples = {(n, tau, q) for n in range(2, self.N_MAX + 1)
                   for tau in range(1, n + 1) for q in Q_GRID}
        assert set(enumerations) == triples
        assert max(enumerations.values()) <= 2
        max_terms = Counter(
            (lv.size, tau, lv.tobytes()) for (lv, tau), _ in logs["oracle_smoothness_max_term"]
        )
        pairs = sum(n for n in range(2, self.N_MAX + 1))
        assert len(max_terms) == pairs * self.LEVELS
        assert set(max_terms.values()) == {1}

    def test_oracle_values_match_public_functions_bitwise(self, monkeypatch):
        logs = self._run(monkeypatch)
        level_sets = {}
        for (levels, tau), _ in logs["oracle_smoothness_max_term"]:
            level_sets.setdefault((levels.size, tau), []).append(levels)
        seen = Counter()
        for (n, tau, q, c, max_term, l_max), l1 in logs["assemble_expected_smoothness"]:
            levels = level_sets[n, tau][seen[n, tau] % self.LEVELS]
            seen[n, tau] += 1
            assert c == sketch_oracle.oracle_bias_correction(n, tau, q)
            assert max_term == sketch_oracle.oracle_smoothness_max_term(levels, tau)
            assert l_max == float(levels.max())
            assert l1 == sketch_oracle.oracle_expected_smoothness(n, tau, q, levels)
        assert sum(seen.values()) == len(Q_GRID) * self.LEVELS * sum(
            n for n in range(2, self.N_MAX + 1)
        )


class TestEnvelopeSuite:
    def test_passes_on_small_grid(self):
        result = check_envelope_shapes(n_values=(10, 50), taus_per_n=6)
        assert result.passed, result.failures[:5]
        assert result.checks > 0

    def test_perturbed_residual_breaks_shapes(self):
        # a residual warped toward +q^3 curvature violates monotonicity/concavity
        def warped(cfg):
            rho, _ = sketch_residual(cfg)
            return rho + 50.0 * cfg.q**3 * (1 - cfg.q) ** 0.5

        result = check_envelope_shapes(n_values=(10,), taus_per_n=4, rho_fn=warped)
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
