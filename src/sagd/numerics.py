"""Low-level numeric kernels used by every other module.

Dense vectors and matrices are plain float64 numpy arrays throughout.  The
one custom container defined here is :class:`SeededRng`, the frozen random
generator that makes runs reproducible bit for bit across platforms and
releases.
"""

import math

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .exceptions import InvalidInputError, NotPositiveDefiniteError

_MASK64 = (1 << 64) - 1
_INV_2_53 = 2.0 ** -53


class SeededRng:
    """xoshiro256** generator seeded through splitmix64.

    The algorithm is deliberately fixed and self-contained (no dependency on
    numpy's generators) so that identical seeds yield identical streams on
    any platform and any release.  State update, all arithmetic mod 2**64::

        out = rotl(s1 * 5, 7) * 9
        t = s1 << 17
        s2 ^= s0;  s3 ^= s1;  s1 ^= s2;  s0 ^= s3;  s2 ^= t
        s3 = rotl(s3, 45)

    Doubles take the top 53 bits of an output word.  Bounded integers use
    rejection sampling and are exactly uniform.  Normals come from a
    Box-Muller pair with the sine half cached.

    Instances are single-owner mutable state: concurrent use requires
    independent instances.
    """

    __slots__ = ("_s0", "_s1", "_s2", "_s3", "_spare_normal")

    def __init__(self, seed):
        if not isinstance(seed, int) or not 0 <= seed <= _MASK64:
            raise InvalidInputError("seed must be a 64-bit unsigned integer")
        z = seed
        state = []
        for _ in range(4):
            z = (z + 0x9E3779B97F4A7C15) & _MASK64
            w = z
            w = ((w ^ (w >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            w = ((w ^ (w >> 27)) * 0x94D049BB133111EB) & _MASK64
            state.append(w ^ (w >> 31))
        self._s0, self._s1, self._s2, self._s3 = state
        self._spare_normal = None

    @classmethod
    def _from_state(cls, state):
        """Build a generator from raw state words (testing hook)."""
        rng = cls(0)
        rng._s0, rng._s1, rng._s2, rng._s3 = (s & _MASK64 for s in state)
        rng._spare_normal = None
        return rng

    def next_u64(self):
        """Return the next raw 64-bit output word."""
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        out = (s1 * 5) & _MASK64
        out = ((out << 7) | (out >> 57)) & _MASK64
        out = (out * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3
        return out

    def uniform(self):
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * _INV_2_53

    def randint_below(self, n):
        """Exactly uniform integer in [0, n)."""
        if n <= 0:
            raise InvalidInputError("randint_below requires n >= 1")
        if n == 1:
            return 0
        # largest multiple of n that fits in 64 bits; reject above it
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def normal(self):
        """Standard normal draw (Box-Muller, sine half cached)."""
        z = self._spare_normal
        if z is not None:
            self._spare_normal = None
            return z
        u1 = ((self.next_u64() >> 11) + 1) * _INV_2_53  # (0, 1], log-safe
        u2 = (self.next_u64() >> 11) * _INV_2_53
        r = math.sqrt(-2.0 * math.log(u1))
        a = 2.0 * math.pi * u2
        self._spare_normal = r * math.sin(a)
        return r * math.cos(a)


def sample_subset(rng, n, tau):
    """Uniformly sample a subset of ``tau`` distinct indices from [0, n).

    Partial Fisher-Yates over an index scratch array: tau swaps, exactly
    uniform over all binomial(n, tau) subsets.  Returns a sorted int64
    array.  ``tau == n`` returns the full index set without consuming any
    randomness.
    """
    if not 1 <= tau <= n:
        raise InvalidInputError(f"need 1 <= tau <= n, got tau={tau}, n={n}")
    if tau == n:
        return np.arange(n, dtype=np.int64)
    scratch = np.arange(n, dtype=np.int64)
    for i in range(tau):
        j = i + rng.randint_below(n - i)
        scratch[i], scratch[j] = scratch[j], scratch[i]
    picked = scratch[:tau]
    picked.sort()
    return picked


def _check_square_symmetric(m, what):
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidInputError(f"{what} requires a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidInputError(f"{what} requires finite entries")
    scale = np.linalg.norm(m)
    if np.linalg.norm(m - m.T) > 1e-12 * scale:
        raise InvalidInputError(f"{what} requires a symmetric matrix (1e-12 relative)")
    return m


def symmetric_eigen(m):
    """Full eigendecomposition of a symmetric matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending and
    eigenvectors in matching columns, so that ``m @ v_k = w_k * v_k``.
    """
    m = _check_square_symmetric(m, "symmetric_eigen")
    w, v = np.linalg.eigh(m)
    return w, v


def solve_spd(m, b):
    """Solve ``m @ x = b`` for symmetric positive definite ``m``.

    Cholesky factorization plus one iterative-refinement pass to tighten
    the residual.  Raises :class:`NotPositiveDefiniteError` if a pivot is
    not positive.
    """
    m = _check_square_symmetric(m, "solve_spd")
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (m.shape[0],):
        raise InvalidInputError(
            f"solve_spd rhs has shape {b.shape}, expected ({m.shape[0]},)"
        )
    try:
        factor = cho_factor(m, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc
    x = cho_solve(factor, b, check_finite=False)
    x = x + cho_solve(factor, b - m @ x, check_finite=False)
    return x
