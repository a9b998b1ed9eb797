import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from reference_methods import ScalarRng, arange_sample_subset
from sagd.exceptions import InvalidInputError, NotPositiveDefiniteError
from sagd.numerics import SeededRng, sample_subset, solve_spd, symmetric_eigen

MAX_SEED = 2**64 - 1
# bulk counts around the scalar/lane switch (4096), one lane (64 words)
# and one chunk (16384 words, 256 lanes), and past a chunk boundary
BULK_COUNTS = (0, 1, 2, 63, 64, 65, 4095, 4096, 4097, 16383, 16384, 16385, 2 * 16384 + 65)


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
        assert a.normals(51).tolist() == b.normals(51).tolist()

    @pytest.mark.parametrize("count", [1, 7, 16385])
    def test_odd_normals_count_drops_the_sine_half(self, count):
        a, b = SeededRng(9), SeededRng(9)
        pairs = b.normals(count + 1)
        assert a.normals(count).tobytes() == pairs[:count].tobytes()
        assert a.next_u64() == b.next_u64()  # the dropped half's words are spent

    @pytest.mark.parametrize("k, m", [(0, 3), (1, 1), (2, 5), (8192, 3), (8191, 16384)])
    def test_normals_split_at_a_pair_equals_one_draw(self, k, m):
        a, b = SeededRng(10), SeededRng(10)
        split = np.concatenate((a.normals(2 * k), a.normals(m)))
        assert split.tobytes() == b.normals(2 * k + m).tobytes()
        assert a.next_u64() == b.next_u64()

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
        draws = rng.normals(40000)
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


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


class TestLaneStream:
    """Every draw equals the scalar transcription's, bit for bit, whatever
    mix of single and bulk draws reads the stream."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.one_of(st.sampled_from((0, 1, MAX_SEED)), st.integers(0, MAX_SEED)),
        draws=st.lists(
            st.tuples(
                st.sampled_from(("next_u64", "uniform", "normal", "randint_below",
                                 "words", "uniforms", "normals", "sample_subset")),
                st.one_of(st.sampled_from(BULK_COUNTS), st.integers(0, 200)),
            ),
            max_size=8,
        ),
        bound=st.sampled_from((1, 7, 300, 2**63 + 1, MAX_SEED)),
    )
    def test_matches_scalar_reference(self, seed, draws, bound):
        rng, ref = SeededRng(seed), ScalarRng(seed)
        for kind, count in draws:
            if kind == "next_u64":
                assert rng.next_u64() == ref.next_u64()
            elif kind == "uniform":
                assert _bits([rng.uniform()]) == _bits([ref.uniform()])
            elif kind == "normal":
                assert _bits(rng.normals(1)) == _bits(ref.normals(1))
            elif kind == "randint_below":  # 2**63 + 1 rejects about half the words
                assert rng.randint_below(bound) == ref.randint_below(bound)
            elif kind == "words":
                got = rng.words(count)
                assert got.dtype == np.uint64
                assert got.tolist() == [ref.next_u64() for _ in range(count)]
            elif kind == "uniforms":
                assert _bits(rng.uniforms(count)) == _bits([ref.uniform() for _ in range(count)])
            elif kind == "sample_subset":  # peeks, then consumes, the buffered words
                tau = max(count, 1)
                n = tau + min(bound, 300)
                expect = arange_sample_subset(ref, n, tau).tolist()
                assert sample_subset(rng, n, tau).tolist() == expect
            else:
                assert _bits(rng.normals(count)) == _bits(ref.normals(count))
        # the stream continues from the next unread word
        assert [rng.next_u64() for _ in range(3)] == [ref.next_u64() for _ in range(3)]
        two = [*ref.normals(1), *ref.normals(1)]
        assert _bits([*rng.normals(1), *rng.normals(1)]) == _bits(two)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, MAX_SEED])
    def test_synth_bulk_draw_matches_scalar_reference(self, seed):
        # one synth_gaussian(20000, 10) draw: 220 000 normals over 14 chunks
        rng, ref = SeededRng(seed), ScalarRng(seed)
        assert _bits(rng.normals(220_000)) == _bits(ref.normals(220_000))
        assert rng.next_u64() == ref.next_u64()

    @pytest.mark.parametrize("count", [4095, 4096, 16383, 16385, 3 * 16384 + 7])
    def test_bulk_words_between_single_words_match_scalar_reference(self, count):
        # counts that end a refill one word short of, on, and past the lane
        # switch and a chunk, so later reads start mid-chunk
        rng, ref = SeededRng(17), ScalarRng(17)
        for _ in range(3):
            assert rng.next_u64() == ref.next_u64()
            assert rng.words(count).tolist() == [ref.next_u64() for _ in range(count)]
        assert [rng.next_u64() for _ in range(5)] == [ref.next_u64() for _ in range(5)]

    def test_from_state_restarts_the_buffer(self):
        rng = SeededRng(4)
        rng.words(5000)
        rng = SeededRng._from_state((1, 2, 3, 4))
        assert rng.words(3).tolist() == [11520, 0, 1509978240]


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

    @pytest.mark.parametrize("seed", [0, 7, MAX_SEED])
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 300, 10_000, 1_000_000])
    def test_matches_arange_fisher_yates(self, seed, n):
        rng, ref = SeededRng(seed), ScalarRng(seed)
        for tau in sorted({1, max(n - 1, 1), n, min(32, n)}):
            for _ in range(3 if tau < n - 1 else 1):
                got = sample_subset(rng, n, tau)
                assert got.dtype == np.int64
                assert got.tolist() == arange_sample_subset(ref, n, tau).tolist(), tau
            assert rng.next_u64() == ref.next_u64()

    def test_rejected_words_redrawn_in_order(self):
        # at n = 2**63 + 1 about half the words are rejected; picks spread
        # over [0, 2**63) never collide, so the subset is the sorted picks
        n = 2**63 + 1
        rng, ref = SeededRng(3), ScalarRng(3)
        for tau in (1, 2, 5, 32):
            picks = sorted(i + ref.randint_below(n - i) for i in range(tau))
            assert sample_subset(rng, n, tau).tolist() == picks
            assert rng.next_u64() == ref.next_u64()

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

    @staticmethod
    def _stack(rng, shape, n):
        m = rng.standard_normal((*shape, n, n))
        return m + np.swapaxes(m, -1, -2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, "asymmetric"])
    def test_stack_with_one_bad_matrix_rejected(self, bad):
        m = self._stack(np.random.default_rng(4), (3, 5), 4)
        symmetric_eigen(m)
        if bad == "asymmetric":
            m[2, 3, 0, 1] += 1e-6
            match = "symmetric"
        else:
            m[2, 3, 1, 1] = bad
            match = "finite"
        with pytest.raises(InvalidInputError, match=match):
            symmetric_eigen(m)

    def test_stack_shapes(self):
        with pytest.raises(InvalidInputError, match="square"):
            symmetric_eigen(np.zeros((3, 2, 4)))
        with pytest.raises(InvalidInputError, match="square"):
            symmetric_eigen(np.zeros(3))
        with pytest.raises(InvalidInputError, match="square"):  # solve_spd takes one matrix
            solve_spd(np.stack([np.eye(2)] * 3), np.ones(3))
        w, v = symmetric_eigen(np.zeros((0, 3, 3)))
        assert w.shape == (0, 3) and v.shape == (0, 3, 3)

    def test_stacked_eigh_equals_per_matrix_calls_bitwise(self):
        # the canary behind the oracles' one stacked eigensolve per (n, tau)
        rng = np.random.default_rng(5)
        for n in range(1, 13):
            m = self._stack(rng, (7,), n)
            m[3] = 0.25 * np.ones((n, n)) - np.eye(n)  # two distinct eigenvalues, as the oracles'
            w, v = symmetric_eigen(m)
            for k in range(m.shape[0]):
                w_k, v_k = np.linalg.eigh(m[k])
                assert w[k].tobytes() == w_k.tobytes() and v[k].tobytes() == v_k.tobytes(), (
                    f"numpy {np.__version__}: a stacked eigh no longer equals one call "
                    f"per matrix bit for bit (n={n}, matrix {k})"
                )


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
