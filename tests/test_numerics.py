import itertools
import math

import numpy as np
import pytest
from scipy.stats import chisquare

from sagd.exceptions import InvalidInputError, NotPositiveDefiniteError
from sagd.numerics import SeededRng, sample_subset, solve_spd, symmetric_eigen


class TestSeededRng:
    def test_matches_published_xoshiro_outputs(self):
        # reference outputs for raw state (1, 2, 3, 4)
        rng = SeededRng._from_state((1, 2, 3, 4))
        assert [rng.next_u64() for _ in range(3)] == [11520, 0, 1509978240]

    def test_same_seed_same_stream(self):
        a = SeededRng(987654321)
        b = SeededRng(987654321)
        assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]
        assert [a.uniform() for _ in range(50)] == [b.uniform() for _ in range(50)]
        assert [a.normal() for _ in range(51)] == [b.normal() for _ in range(51)]

    def test_different_seeds_differ(self):
        a, b = SeededRng(1), SeededRng(2)
        assert [a.next_u64() for _ in range(4)] != [b.next_u64() for _ in range(4)]

    def test_uniform_range_and_moments(self):
        rng = SeededRng(5)
        draws = np.array([rng.uniform() for _ in range(20000)])
        assert np.all((draws >= 0.0) & (draws < 1.0))
        assert abs(draws.mean() - 0.5) < 3 * 0.5 / math.sqrt(12 * 20000) * math.sqrt(12)

    def test_normal_moments(self):
        rng = SeededRng(6)
        draws = np.array([rng.normal() for _ in range(40000)])
        assert abs(draws.mean()) < 3 / math.sqrt(40000)
        assert abs(draws.var() - 1.0) < 3 * math.sqrt(2.0 / 40000)

    def test_randint_below_exact_range(self):
        rng = SeededRng(7)
        draws = [rng.randint_below(7) for _ in range(5000)]
        assert set(draws) == set(range(7))

    def test_bad_seed_rejected(self):
        with pytest.raises(InvalidInputError):
            SeededRng(-1)
        with pytest.raises(InvalidInputError):
            SeededRng(1 << 64)


class TestSampleSubset:
    def test_full_set_forced_any_seed(self):
        for seed in (0, 1, 99):
            rng = SeededRng(seed)
            assert sample_subset(rng, 6, 6).tolist() == [0, 1, 2, 3, 4, 5]

    def test_sizes_and_distinctness(self):
        rng = SeededRng(3)
        for n, tau in [(10, 1), (10, 3), (10, 9), (2, 1)]:
            got = sample_subset(rng, n, tau)
            assert got.size == tau
            assert len(set(got.tolist())) == tau
            assert got.tolist() == sorted(got.tolist())

    def test_invalid_tau(self):
        rng = SeededRng(0)
        with pytest.raises(InvalidInputError):
            sample_subset(rng, 5, 0)
        with pytest.raises(InvalidInputError):
            sample_subset(rng, 5, 6)

    def test_single_index_frequencies(self):
        # tau = 1, n = 5: each index within 3 sigma of 1/5 over 1e5 draws
        rng = SeededRng(11)
        n, draws = 5, 100_000
        counts = np.zeros(n, int)
        for _ in range(draws):
            counts[sample_subset(rng, n, 1)[0]] += 1
        sigma = math.sqrt(draws * (1 / n) * (1 - 1 / n))
        assert np.all(np.abs(counts - draws / n) <= 3 * sigma)

    def test_pair_frequencies(self):
        # n = 4, tau = 2: each of the 6 pairs within 3 sigma of 1/6 over 1e5 draws
        rng = SeededRng(12)
        draws = 100_000
        counts = {pair: 0 for pair in itertools.combinations(range(4), 2)}
        for _ in range(draws):
            counts[tuple(sample_subset(rng, 4, 2).tolist())] += 1
        sigma = math.sqrt(draws * (1 / 6) * (5 / 6))
        for pair, c in counts.items():
            assert abs(c - draws / 6) <= 3 * sigma, pair

    @pytest.mark.parametrize("n,tau", [(5, 2), (6, 3)])
    def test_uniform_over_all_subsets_chisquare(self, n, tau):
        rng = SeededRng(13 + n)
        draws = 1_000_000
        keys = {pair: k for k, pair in enumerate(itertools.combinations(range(n), tau))}
        counts = np.zeros(len(keys), int)
        for _ in range(draws):
            counts[keys[tuple(sample_subset(rng, n, tau).tolist())]] += 1
        assert chisquare(counts).pvalue > 0.001


class TestSymmetricEigen:
    def test_identity(self):
        w, v = symmetric_eigen(np.eye(3))
        assert np.allclose(w, [1.0, 1.0, 1.0], atol=0, rtol=0)
        assert np.allclose(v @ v.T, np.eye(3), atol=1e-12)

    def test_diagonal_sorted_ascending(self):
        w, _ = symmetric_eigen(np.diag([2.0, 5.0, -1.0]))
        assert w.tolist() == [-1.0, 2.0, 5.0]

    def test_reconstruction_random_symmetric(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((6, 6))
        m = m + m.T
        w, v = symmetric_eigen(m)
        assert np.linalg.norm(v @ np.diag(w) @ v.T - m) <= 1e-9 * np.linalg.norm(m)

    @pytest.mark.parametrize("dim", [2, 8, 17, 33, 64])
    def test_eigenpair_residuals(self, dim):
        rng = np.random.default_rng(dim)
        m = rng.standard_normal((dim, dim))
        m = 0.5 * (m + m.T)
        w, v = symmetric_eigen(m)
        fro = np.linalg.norm(m)
        assert np.all(np.diff(w) >= 0)
        for k in range(dim):
            assert np.linalg.norm(m @ v[:, k] - w[k] * v[:, k]) <= 1e-9 * fro

    def test_rejects_nonsquare_and_asymmetric(self):
        with pytest.raises(InvalidInputError):
            symmetric_eigen(np.ones((2, 3)))
        with pytest.raises(InvalidInputError):
            symmetric_eigen(np.array([[1.0, 2.0], [0.0, 1.0]]))


def _spd_with_condition(rng, dim, cond):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    eigs = np.logspace(0, -math.log10(cond), dim)
    return q @ np.diag(eigs) @ q.T


class TestSolveSpd:
    def test_identity(self):
        b = np.array([3.0, -1.0, 2.5])
        assert solve_spd(np.eye(3), b).tolist() == b.tolist()

    def test_diagonal(self):
        x = solve_spd(np.diag([2.0, 4.0]), np.array([2.0, 8.0]))
        assert x.tolist() == [1.0, 2.0]

    def test_random_spd_residual(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((8, 8))
        m = m @ m.T + 8 * np.eye(8)
        b = rng.standard_normal(8)
        x = solve_spd(m, b)
        assert np.linalg.norm(m @ x - b) <= 1e-10 * np.linalg.norm(b)

    @pytest.mark.parametrize("cond", [1e2, 1e4, 1e6])
    def test_residual_bound_generic_rhs(self, cond):
        rng = np.random.default_rng(int(math.log10(cond)))
        m = _spd_with_condition(rng, 12, cond)
        # symmetrize exactly so the input check cannot trip on rounding
        m = 0.5 * (m + m.T)
        b = rng.standard_normal(12)
        x = solve_spd(m, b)
        assert np.linalg.norm(m @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_residual_bound_condition_1e8(self):
        # b = M x_true keeps ||x|| bounded, where the 1e-10 bound is attainable
        rng = np.random.default_rng(8)
        m = _spd_with_condition(rng, 12, 1e8)
        m = 0.5 * (m + m.T)
        x_true = rng.standard_normal(12)
        b = m @ x_true
        x = solve_spd(m, b)
        assert np.linalg.norm(m @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefiniteError):
            solve_spd(np.diag([1.0, -1.0]), np.array([1.0, 1.0]))
