import itertools
import math

import numpy as np
import pytest

from sagd import sketch_oracle as oracle
from sagd.complexity import InterpolationConfig, theta
from sagd.exceptions import EnumerationLimitError, InvalidInputError
from sagd.problem import Dataset, LossSpec, full_grad
from sagd.verification import Q_GRID

from reference_methods import (
    loop_atoms,
    loop_expected_projection,
    loop_residual_eigenvalues,
    loop_smoothness_max_term,
)


class TestEnumerateSampling:
    def test_atom_counts_and_total_mass(self):
        atoms = oracle.enumerate_sampling(4, 2, 0.3)
        assert len(atoms) == 4 + 6
        assert abs(sum(a.probability for a in atoms) - 1.0) <= 1e-12

    def test_single_sample_only(self):
        atoms = oracle.enumerate_sampling(5, 2, 0.0)
        singles = [a for a in atoms if len(a.indices) == 1]
        subsets = [a for a in atoms if len(a.indices) == 2]
        assert all(a.probability == 0.2 for a in singles)
        assert all(a.probability == 0.0 for a in subsets)

    def test_full_gradient_only(self):
        atoms = oracle.enumerate_sampling(5, 5, 1.0)
        full = [a for a in atoms if len(a.indices) == 5]
        assert len(full) == 1 and full[0].probability == 1.0
        assert all(a.probability == 0.0 for a in atoms if len(a.indices) == 1)

    def test_mass_split(self):
        q = 0.4
        atoms = oracle.enumerate_sampling(6, 3, q)
        single_mass = sum(a.probability for a in atoms if len(a.indices) == 1)
        subset_mass = sum(a.probability for a in atoms if len(a.indices) == 3)
        assert abs(single_mass - (1 - q)) <= 1e-12
        assert abs(subset_mass - q) <= 1e-12

    def test_cap_enforced(self):
        with pytest.raises(EnumerationLimitError):
            oracle.enumerate_sampling(13, 2, 0.5)

    @pytest.mark.parametrize("n, tau, q", [(4, 5, 0.5), (4, 0, 0.5), (4, 2, -0.1),
                                           (4, 2, 1.5), (4, 2, float("nan"))])
    def test_invalid_input_rejected(self, n, tau, q):
        # tau > n is caught before math.comb(n, tau) = 0 divides the mass
        with pytest.raises(InvalidInputError):
            oracle.enumerate_sampling(n, tau, q)

    def test_atoms_in_combinations_order(self):
        q = 0.3
        for n in range(1, 9):
            for tau in range(1, n + 1):
                got = oracle.enumerate_sampling(n, tau, q)
                assert [(a.probability, a.indices) for a in got] == loop_atoms(n, tau, q)
                assert all(type(i) is int for a in got for i in a.indices)


class TestExpectedProjection:
    def test_limits(self):
        assert np.allclose(oracle.oracle_expected_projection(4, 2, 0.0), np.eye(4) / 4)
        assert np.allclose(oracle.oracle_expected_projection(4, 4, 1.0), np.eye(4))

    def test_scaled_identity(self):
        mean = oracle.oracle_expected_projection(5, 3, 0.4)
        expect = (0.4 * 2 + 1) / 5
        assert np.max(np.abs(mean - expect * np.eye(5))) <= 1e-12

    def test_offdiagonal_zero(self):
        mean = oracle.oracle_expected_projection(6, 4, 0.7)
        off = mean - np.diag(np.diag(mean))
        assert np.max(np.abs(off)) <= 1e-15


class TestBiasCorrectionOracle:
    def test_limits(self):
        assert abs(oracle.oracle_bias_correction(10, 3, 0.0) - 10.0) <= 1e-12
        assert abs(oracle.oracle_bias_correction(10, 10, 1.0) - 1.0) <= 1e-12

    def test_cost_product(self):
        for n in range(2, 8):
            for tau in range(1, n + 1):
                for q in (0.0, 0.35, 1.0):
                    c = oracle.oracle_bias_correction(n, tau, q)
                    assert abs(c * (q * (tau - 1) + 1) - n) <= 1e-12 * n

    def test_matches_closed_form(self):
        for n, tau, q in [(6, 3, 0.5), (8, 8, 0.25), (5, 1, 0.9)]:
            cfg = InterpolationConfig(q=q, tau=tau, n=n)
            assert abs(theta(cfg) - oracle.oracle_bias_correction(n, tau, q)) <= 1e-12


class TestSketchResidualOracle:
    def test_full_gradient_zero(self):
        assert abs(oracle.oracle_sketch_residual(6, 6, 1.0)) <= 1e-9

    def test_single_sample_value(self):
        assert abs(oracle.oracle_sketch_residual(10, 1, 0.0) - 10.0) <= 1e-9

    def test_nonnegative(self):
        for n in (2, 4, 6):
            for tau in range(1, n + 1):
                for qi in range(0, 21, 2):
                    assert oracle.oracle_sketch_residual(n, tau, qi / 20) >= -1e-12

    def test_at_most_two_distinct_eigenvalues(self):
        for n, tau, q in [(6, 3, 0.4), (7, 2, 0.9), (5, 4, 0.15)]:
            w = oracle.oracle_residual_eigenvalues(n, tau, q)
            distinct = []
            for value in w:
                if not any(abs(value - d) <= 1e-9 * max(1.0, abs(d)) for d in distinct):
                    distinct.append(value)
            assert len(distinct) <= 2

    def test_dense_q_sweep_continuity(self):
        # residual is continuous in q even across the branch change
        n, tau = 6, 4
        qs = np.linspace(0.0, 1.0, 101)
        vals = [oracle.oracle_sketch_residual(n, tau, float(q)) for q in qs]
        jumps = np.abs(np.diff(vals))
        assert np.max(jumps) <= 10.0 * (qs[1] - qs[0]) * n * n


class TestSmoothnessMaxTerm:
    def test_uniform_levels(self):
        n, tau, c = 7, 3, 1.4
        got = oracle.oracle_smoothness_max_term(np.full(n, c), tau)
        assert abs(got - math.comb(n - 1, tau - 1) * c) <= 1e-12 * got

    def test_full_subset(self):
        levels = np.array([1.0, 2.0, 3.0])
        assert oracle.oracle_smoothness_max_term(levels, 3) == 2.0  # the single mean

    def test_single_element_subsets(self):
        levels = np.array([0.3, 2.5, 1.1])
        assert oracle.oracle_smoothness_max_term(levels, 1) == 2.5

    def test_single_element_subsets_enumerated(self, monkeypatch):
        # tau = 1 takes the same enumeration as tau >= 2, not levels.max()
        seen = []
        atom_rows = oracle.atom_rows
        monkeypatch.setattr(oracle, "atom_rows", lambda n, tau: seen.append((n, tau))
                            or atom_rows(n, tau))
        assert oracle.oracle_smoothness_max_term(np.array([0.3, 2.5, 1.1]), 1) == 2.5
        assert oracle.oracle_smoothness_max_term(np.ones((2, 4)), 1).tolist() == [1.0, 1.0]
        assert seen == [(3, 1), (4, 1)]

    def test_matches_combinatorial_identity(self):
        rng = np.random.default_rng(7)
        n, tau = 7, 3
        levels = rng.uniform(0.5, 2.0, n)
        got = oracle.oracle_smoothness_max_term(levels, tau)
        l_bar, l_max = levels.mean(), levels.max()
        want = math.comb(n - 2, tau - 2) * (
            (n / tau) * l_bar + ((n - tau) / (tau * (tau - 1))) * l_max
        )
        assert abs(got - want) <= 1e-12 * want


class TestMatchesAtomLoops:
    """The scattered enumerations keep the bits of the atom-by-atom loops."""

    def test_projection_and_residual(self):
        for n in range(1, 9):
            for tau in range(1, n + 1):
                for q in (*Q_GRID, 1 / 3, 0.123456789):
                    got = oracle.oracle_expected_projection(n, tau, q)
                    assert got.tobytes() == loop_expected_projection(n, tau, q).tobytes()
                    got = oracle.oracle_residual_eigenvalues(n, tau, q)
                    assert got.tobytes() == loop_residual_eigenvalues(n, tau, q).tobytes()

    def test_smoothness_max_term(self):
        # tau >= 8 reaches numpy's pairwise summation inside the subset means,
        # for one level set and for a (K, n) stack of them alike
        rng = np.random.default_rng(11)
        for n in range(1, oracle.ENUMERATION_CAP + 1):
            for tau in range(1, n + 1):
                levels = 10.0 ** rng.uniform(-3.0, 5.0, (3, n))
                want = [loop_smoothness_max_term(lv, tau) for lv in levels]
                assert [oracle.oracle_smoothness_max_term(lv, tau) for lv in levels] == want
                assert oracle.oracle_smoothness_max_term(levels, tau).tolist() == want, (n, tau)


class TestArrayQ:
    """An array q gives one result per entry, bit for bit the scalar calls',
    from one enumeration per (n, tau)."""

    QS = np.array([*Q_GRID, 1 / 3, 0.123456789, 0.0]).reshape(4, 6)

    def test_atom_rows_match_combinations(self):
        for n in range(1, 9):
            for tau in range(1, n + 1):
                singles, subsets = oracle.atom_rows(n, tau)
                assert singles.tolist() == [[j] for j in range(n)]
                assert subsets.tolist() == [list(c) for c in itertools.combinations(range(n), tau)]
                assert not singles.flags.writeable and not subsets.flags.writeable
                assert oracle.atom_rows(n, tau)[1] is subsets  # built once

    def test_every_oracle_matches_its_scalar_calls(self):
        levels = np.random.default_rng(12).uniform(0.5, 2.0, size=(3, 8))
        for n in range(1, 9):
            for tau in range(1, n + 1):
                mean = oracle.oracle_expected_projection(n, tau, self.QS)
                eig = oracle.oracle_residual_eigenvalues(n, tau, self.QS)
                rho = oracle.oracle_sketch_residual(n, tau, self.QS)
                c = oracle.oracle_bias_correction(n, tau, self.QS)
                l1 = oracle.oracle_expected_smoothness(n, tau, self.QS, levels[0, :n])
                assert mean.shape == self.QS.shape + (n, n) and eig.shape == self.QS.shape + (n,)
                assert rho.shape == c.shape == l1.shape == self.QS.shape
                for at in np.ndindex(self.QS.shape):
                    q = float(self.QS[at])
                    assert mean[at].tobytes() == oracle.oracle_expected_projection(n, tau, q).tobytes()
                    assert eig[at].tobytes() == oracle.oracle_residual_eigenvalues(n, tau, q).tobytes()
                    assert rho[at] == oracle.oracle_sketch_residual(n, tau, q)
                    assert c[at] == oracle.oracle_bias_correction(n, tau, q)
                    assert l1[at] == oracle.oracle_expected_smoothness(n, tau, q, levels[0, :n])
                stacked = oracle.oracle_smoothness_max_term(levels[:, :n], tau)
                assert stacked.tolist() == [
                    oracle.oracle_smoothness_max_term(lv, tau) for lv in levels[:, :n]
                ]

    def test_scalar_q_keeps_its_types(self):
        assert isinstance(oracle.oracle_sketch_residual(4, 2, 0.5), float)
        assert isinstance(oracle.oracle_smoothness_max_term(np.ones(4), 2), float)
        assert isinstance(oracle.oracle_bias_correction(4, 2, 0.5), np.float64)
        assert oracle.oracle_expected_projection(4, 2, 0.5).shape == (4, 4)
        assert oracle.oracle_residual_eigenvalues(4, 2, 0.5).shape == (4,)

    @pytest.mark.parametrize("name", [
        "oracle_expected_projection", "oracle_residual_eigenvalues",
        "oracle_sketch_residual", "oracle_bias_correction",
    ])
    def test_out_of_range_entry_named(self, name):
        fn = getattr(oracle, name)
        with pytest.raises(InvalidInputError, match=r"got q\[2\] = 1\.5$"):
            fn(4, 2, np.array([0.0, 0.5, 1.5, -0.2]))
        with pytest.raises(InvalidInputError, match=r"got q\[1, 0\] = nan$"):
            fn(4, 2, np.array([[0.1, 0.2], [np.nan, 2.0]]))
        with pytest.raises(InvalidInputError, match=r"got 1\.5$"):
            fn(4, 2, 1.5)

    def test_cap_checked_before_any_enumeration(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("enumerated past the cap")

        monkeypatch.setattr(oracle, "atom_rows", refuse)
        monkeypatch.setattr(oracle.itertools, "combinations", refuse)
        n = oracle.ENUMERATION_CAP + 1
        for fn in (oracle.oracle_expected_projection, oracle.oracle_residual_eigenvalues,
                   oracle.oracle_sketch_residual, oracle.oracle_bias_correction):
            with pytest.raises(EnumerationLimitError):
                fn(n, 2, np.array([0.5, 2.0]))
        for tau in (1, 2):
            with pytest.raises(EnumerationLimitError):
                oracle.oracle_smoothness_max_term(np.ones((3, n)), tau)


class TestExpectedDirection:
    def test_equals_full_gradient_for_any_table(self):
        rng = np.random.default_rng(3)
        n, d = 5, 3
        data = Dataset.from_dense(rng.standard_normal((n, d)), rng.standard_normal(n))
        loss = LossSpec("ridge", 0.1)
        x = rng.standard_normal(d)
        table = rng.standard_normal((d, n))
        grad = full_grad(data, loss, x)
        for q, tau in [(0.0, 1), (0.3, 2), (0.7, 4), (1.0, 5)]:
            mean = oracle.oracle_expected_direction(data, loss, x, table, q, tau)
            assert np.linalg.norm(mean - grad) <= 1e-12 * (1 + np.linalg.norm(grad))

    def test_table_shape_checked(self):
        rng = np.random.default_rng(4)
        data = Dataset.from_dense(rng.standard_normal((4, 2)), rng.standard_normal(4))
        with pytest.raises(InvalidInputError):
            oracle.oracle_expected_direction(
                data, LossSpec("ridge", 0.0), np.zeros(2), np.zeros((4, 2)), 0.5, 2
            )
