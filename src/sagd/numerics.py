"""Low-level numeric kernels used by every other module.

Dense vectors and matrices are plain float64 numpy arrays throughout.  The
one custom container defined here is :class:`SeededRng`, the frozen random
generator: integer arithmetic alone, so a seed draws one stream on every
platform and release (trajectories also depend on the BLAS kernels: README).
"""

import functools
import math
import numbers

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .exceptions import InvalidInputError, NotPositiveDefiniteError

_MASK64 = (1 << 64) - 1
_INV_2_53 = 2.0 ** -53

# Lane geometry of the bulk generator: a lane chunk is a power of two of lanes (at
# most _MAX_LANES) of _STEPS consecutive words each, lane g starting g * _STEPS words
# in; doubling refills stop at _CHUNK words (256 lanes), and bulk draws refill one
# widest chunk of _BULK words at a time.
_STEPS = 64
_MAX_LANES = 1024
_CHUNK = 256 * _STEPS
_BULK = _MAX_LANES * _STEPS
# Refills of fewer words than this come from the scalar loop: below it a
# lane chunk's cost (the spread and 64 vector steps) and the once-per-process
# table build are not repaid.
_SCALAR_WORDS = 4096
_FIRST_FILL = 64  # the read buffer starts this small and doubles up to _CHUNK


def _step_lanes(s0, s1, s2, s3, s1_next, t):
    """One xoshiro256** state update of every lane (uint64 arrays, one entry
    per lane): s0, s2 and s3 in place, the new s1 into ``s1_next`` (which may
    be ``s1``); ``t`` is scratch.  The output function is left to the caller."""
    np.left_shift(s1, 17, out=t)
    s2 ^= s0
    s3 ^= s1
    np.bitwise_xor(s1, s2, out=s1_next)
    s0 ^= s3
    s2 ^= t
    np.left_shift(s3, 45, out=t)
    s3 >>= 19
    s3 |= t


_NIBBLE_BASE = (np.arange(64) * 16)[:, None]


def _nibble_table(rows):
    """The lookup table of :func:`_apply` for a GF(2) matrix given by its 256
    packed rows (row i is its image of the unit state i): entry 16 j + m is
    the XOR of the rows that the bits of m select in nibble j of a state."""
    per_bit = rows.reshape(64, 4, 4)
    table = np.zeros((64, 16, 4), dtype=np.uint64)
    for k in range(4):
        table[:, 1 << k:2 << k] = table[:, :1 << k] ^ per_bit[:, k, None, :]
    return table.reshape(1024, 4)


def _apply(table, states):
    """Apply a GF(2) matrix, given by its :func:`_nibble_table`, to states
    (k x 4, uint64): the XOR of one table entry per nibble of each state,
    states a block of 64 at a time, which bounds the gathered temporary at
    128 kB."""
    octets = np.ascontiguousarray(states, dtype="<u8").view(np.uint8).T
    nibbles = np.empty((64, len(states)), dtype=np.intp)
    np.bitwise_and(octets, 15, out=nibbles[0::2])
    np.right_shift(octets, 4, out=nibbles[1::2])
    nibbles += _NIBBLE_BASE
    out = np.empty((len(states), 4), dtype=np.uint64)
    for a in range(0, len(states), 64):
        np.bitwise_xor.reduce(table[nibbles[:, a:a + 64]], axis=0, out=out[a:a + 64])
    return out


@functools.cache
def _spread_table(k):
    """Nibble table of T^(_STEPS * 2^k), with T the one-step state transition:
    the doubling that sets lanes 2^k .. 2^(k+1) - 1 of a chunk.  Built once per
    process and k, on first use: T^_STEPS by stepping the 256 unit states
    _STEPS times, each later power by squaring the one before."""
    if k:  # square the last power; its rows are its table's entries 16 j + 2^b
        last = _spread_table(k - 1)
        rows = _apply(last, last.reshape(64, 16, 4)[:, [1, 2, 4, 8]].reshape(256, 4))
        return _nibble_table(rows)
    bit = np.arange(256)
    lanes = np.zeros((4, 256), dtype=np.uint64)  # lane i: the state with only bit i set
    lanes[bit // 64, bit] = np.left_shift(np.uint64(1), (bit % 64).astype(np.uint64))
    for _ in range(_STEPS):
        _step_lanes(*lanes, lanes[1], np.empty(256, dtype=np.uint64))
    return _nibble_table(np.ascontiguousarray(lanes.T))


def _check_count(count):
    """Refuse a bulk draw's count unless it is an integer >= 0, before any word is read."""
    if not (isinstance(count, numbers.Integral) and count >= 0):
        raise InvalidInputError(f"a bulk draw needs an integer count >= 0, got {count!r}")


class SeededRng:
    """xoshiro256** generator seeded through splitmix64, read through a
    buffered word stream.

    The algorithm is deliberately fixed and self-contained (no dependency on
    numpy's generators) so that identical seeds yield identical streams on
    any platform and any release.  State update, all arithmetic mod 2**64::

        out = rotl(s1 * 5, 7) * 9
        t = s1 << 17
        s2 ^= s0;  s3 ^= s1;  s1 ^= s2;  s0 ^= s3;  s2 ^= t
        s3 = rotl(s3, 45)

    Doubles take the top 53 bits of an output word.  Bounded integers use
    rejection sampling and are exactly uniform.  Normals come from
    Box-Muller pairs; an odd count drops the sine half of its last pair.

    Every draw reads one buffer; words leave the generator only by
    refilling it, with at least the draw's shortfall and otherwise double
    the last fill, from 64 words up to 16384; bulk draws refill 65536
    words (1024 lanes) at a time, so a draw holds its output and one chunk.
    Refills under 4096 words come from a scalar loop, larger ones from lane
    chunks: the update is linear over GF(2), so jump matrices set the fewest
    power-of-two lanes (at most 1024) that cover the rest of the refill 64
    words apart, the lanes step together as numpy uint64 arrays, and the
    last lane ends at the state after the chunk; a last chunk's surplus
    stays buffered.  Bit identity is the contract: every method returns
    exactly what the one-word-at-a-time generator gives, and the stream
    continues from the next unread word after any mix of single and bulk
    draws.

    Instances are single-owner mutable state: concurrent use requires
    independent instances.
    """

    __slots__ = ("_s0", "_s1", "_s2", "_s3", "_buf", "_pos")

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
        self._reset(state)

    def _reset(self, state):
        # the generator state sits after the last buffered word
        self._s0, self._s1, self._s2, self._s3 = state
        self._buf = np.empty(0, dtype=np.uint64)
        self._pos = 0

    @classmethod
    def _from_state(cls, state):
        """Build a generator from raw state words (testing hook)."""
        rng = cls(0)
        rng._reset([s & _MASK64 for s in state])
        return rng

    def next_u64(self):
        """Return the next raw 64-bit output word."""
        pos = self._pos
        if pos == len(self._buf):
            self._refill(1)
            pos = 0
        self._pos = pos + 1
        return self._buf.item(pos)

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

    def words(self, count):
        """The next ``count`` raw words, as a uint64 array."""
        _check_count(count)
        out = self._peek(count)
        self._pos += count
        return out

    def uniforms(self, count):
        """``count`` draws of ``uniform()``, as an array."""
        _check_count(count)
        out = np.empty(count)
        for a in range(0, count, _BULK):  # a refill at a time bounds the memory
            np.multiply(self.words(min(_BULK, count - a)) >> 11, _INV_2_53, out=out[a:a + _BULK])
        return out

    def normals(self, count):
        """``count`` standard normal draws (Box-Muller), as an array; an odd
        count drops the sine half of the last pair."""
        _check_count(count)
        z = np.empty(count + count % 2)
        for a in range(0, len(z), _BULK):  # a refill at a time bounds the memory
            w = self.words(min(_BULK, len(z) - a))
            for b in range(0, len(w), _CHUNK):  # _CHUNK is even: no pair straddles two slices
                _box_muller(w[b:b + _CHUNK], z[a + b:a + b + _CHUNK])
        return z[:count]

    def _peek(self, count):
        """The next ``count`` words without consuming them."""
        if self._pos + count > len(self._buf):
            self._refill(count - (len(self._buf) - self._pos))
        return self._buf[self._pos:self._pos + count]

    def _refill(self, need):
        """Make the unread words, then at least ``need`` fresh ones, the buffer."""
        count = max(need, min(2 * len(self._buf), _CHUNK), _FIRST_FILL)
        if count < _SCALAR_WORDS:
            fresh = [self._scalar_words(count)]
        else:
            fresh = []
            while count > 0:  # the fewest lanes that cover the rest, at most _MAX_LANES
                lanes = min(1 << (-(-count // _STEPS) - 1).bit_length(), _MAX_LANES)
                fresh.append(self._lane_chunk(lanes))
                count -= lanes * _STEPS
        self._buf = np.concatenate((self._buf[self._pos:], *fresh))
        self._pos = 0

    def _scalar_words(self, count):
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        s1s = []  # the output reads s1 alone, so it is one pass over these
        append = s1s.append
        for _ in range(count):
            append(s1)
            t = (s1 << 17) & _MASK64
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3
        return _output(np.array(s1s, dtype=np.uint64))

    def _lane_chunk(self, lanes):
        """The next lanes * _STEPS words from ``lanes`` lanes (a power of two up to
        _MAX_LANES) stepped together; the last lane's state is the state after them."""
        starts = np.array([[self._s0, self._s1, self._s2, self._s3]], dtype=np.uint64)
        for k in range(lanes.bit_length() - 1):  # lanes 2^k .. 2^(k+1) - 1
            starts = np.concatenate((starts, _apply(_spread_table(k), starts)))
        s0, s1, s2, s3 = np.ascontiguousarray(starts.T)
        # row b of s1s holds every lane's s1 before step b, the only state
        # word the output reads, so the output is one pass over the block
        s1s = np.empty((_STEPS + 1, lanes), dtype=np.uint64)
        s1s[0] = s1
        t = np.empty(lanes, dtype=np.uint64)
        for b in range(_STEPS):
            _step_lanes(s0, s1s[b], s2, s3, s1s[b + 1], t)
        self._s0, self._s1, self._s2, self._s3 = (
            s0[-1].item(), s1s[-1, -1].item(), s2[-1].item(), s3[-1].item())
        return _output(s1s[:_STEPS].T).ravel()  # lane g's words in row g


def _output(s1):
    """rotl(s1 * 5, 7) * 9 of every word of a uint64 array, mod 2**64 as in the scalar update."""
    w = np.multiply(s1, 5, order="C")
    high = w << 7
    w >>= 57
    w |= high
    w *= 9
    return w


def _box_muller(w, out):
    """Normals from an even number of words, a Box-Muller pair from each
    two: out[0::2] the cosine halves, out[1::2] the sine halves.

    log, cos and sin run through ``math`` (libm), as a scalar transcription
    would; numpy's SIMD versions may round differently.  The integer-to-float
    conversions, sqrt and the products are exact or correctly rounded in
    numpy too, so every value has the bits of the scalar draw.
    """
    half = len(w) // 2
    u1 = ((w[0::2] >> 11) + 1).astype(np.float64) * _INV_2_53
    u2 = (w[1::2] >> 11).astype(np.float64) * _INV_2_53
    r = np.sqrt(-2.0 * np.fromiter(map(math.log, u1.tolist()), np.float64, half))
    a = ((2.0 * math.pi) * u2).tolist()
    np.multiply(r, np.fromiter(map(math.cos, a), np.float64, half), out=out[0::2])
    np.multiply(r, np.fromiter(map(math.sin, a), np.float64, half), out=out[1::2])


def sample_subset(rng, n, tau):
    """Uniformly sample a subset of ``tau`` distinct indices from [0, n).

    Partial Fisher-Yates: tau swaps, exactly uniform over all
    binomial(n, tau) subsets, with the swapped slots of the index array
    kept in a dict, so a draw costs O(tau) whatever n is.  The draws are
    those of ``rng.randint_below(n - i)`` for i = 0 .. tau - 1, in order.
    When no buffered word can be rejected (each is at most 2**64 - 1 - n,
    below every rejection limit) they are reduced from the buffer directly.
    Returns a sorted int64 array.  ``tau == n`` returns the full index set
    without consuming any randomness.
    """
    if not 1 <= tau <= n:
        raise InvalidInputError(f"need 1 <= tau <= n, got tau={tau}, n={n}")
    if tau == n:
        return np.arange(n, dtype=np.int64)
    words = rng._peek(tau).tolist()
    if max(words) <= _MASK64 - n:
        rng._pos += tau
        picks = [i + w % (n - i) for i, w in enumerate(words)]
    else:
        picks = [i + rng.randint_below(n - i) for i in range(tau)]
    moved = {}
    picked = []
    for i, j in enumerate(picks):
        picked.append(moved.get(j, j))
        moved[j] = moved.get(i, i)
    picked.sort()
    return np.array(picked, dtype=np.int64)


def _check_square_symmetric(m, what, stack=False):
    """m as a float array; each matrix of it must be square, finite and
    symmetric to 1e-12 relative (a ``(..., n, n)`` stack if ``stack``)."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim < 2 or (m.ndim > 2 and not stack) or m.shape[-1] != m.shape[-2]:
        raise InvalidInputError(f"{what} requires a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidInputError(f"{what} requires finite entries")
    scale = np.linalg.norm(m, axis=(-2, -1))
    if np.any(np.linalg.norm(m - np.swapaxes(m, -2, -1), axis=(-2, -1)) > 1e-12 * scale):
        raise InvalidInputError(f"{what} requires a symmetric matrix (1e-12 relative)")
    return m


def symmetric_eigen(m):
    """Full eigendecomposition of a symmetric matrix, or of each matrix of a
    ``(..., n, n)`` stack (one stacked LAPACK call, the same bits as one call
    per matrix).

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending and
    eigenvectors in matching columns, so that ``m @ v_k = w_k * v_k``.
    """
    m = _check_square_symmetric(m, "symmetric_eigen", stack=True)
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
