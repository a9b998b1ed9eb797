"""Brute-force enumeration of the interpolated sampling distribution.

These routines recompute, by explicit enumeration over all singleton and
tau-subset outcomes, the quantities that :mod:`sagd.complexity` produces in
closed form: the bias correction, the projector mean, the sketch residual,
and the max term inside the expected smoothness constant.  They exist to
test the closed forms, so they deliberately avoid every shortcut the closed
forms rely on (the residual eigenvalue comes from a dense eigensolve, not
from the circulant structure).  Every atom is added in ``enumerate_sampling``
order, by one in-order ``np.add.at`` per group: an atom loop's bits exactly.

The sampling-law oracles take a float ``q`` or a numpy array of them and
give one result per entry (shape ``q.shape + ...``), each bit for bit the
scalar call's: the atom index rows of an (n, tau) are built once
(:func:`atom_rows`), the masses become arrays over q, one scatter fills
every q's matrix, and one stacked eigensolve gives every q's residual
eigenvalues.  The max term takes one level set or a ``(K, n)`` stack.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import EnumerationLimitError, InvalidInputError
from .numerics import symmetric_eigen
from .problem import gradient_fn

ENUMERATION_CAP = 12


@dataclass(frozen=True)
class SamplingAtom:
    """One elementary outcome of the sampling: an index set and its mass."""

    probability: float
    indices: tuple


def _check_sizes(n, tau):
    if n > ENUMERATION_CAP:
        raise EnumerationLimitError(
            f"enumeration is capped at n <= {ENUMERATION_CAP}, got n = {n}"
        )
    if not 1 <= tau <= n:
        raise InvalidInputError(f"need 1 <= tau <= n, got tau={tau}, n={n}")


def _check_q(q):
    """q as a float array; an entry outside [0, 1] (or NaN) is named."""
    qa = np.asarray(q, dtype=np.float64)
    bad = ~((0.0 <= qa) & (qa <= 1.0))
    if bad.any():
        first = tuple(np.argwhere(bad)[0].tolist())
        at = f"q{list(first)} = " if first else ""
        raise InvalidInputError(f"q must be in [0, 1], got {at}{qa[first]}")
    return qa


def enumerate_sampling(n, tau, q):
    """All atoms of the sampling law: n singletons with mass (1-q)/n each
    and binomial(n, tau) subsets with mass q/binomial(n, tau) each."""
    _check_sizes(n, tau)
    _check_q(q)
    atoms = [SamplingAtom((1.0 - q) / n, (j,)) for j in range(n)]
    subset_mass = q / math.comb(n, tau)
    atoms.extend(
        SamplingAtom(subset_mass, combo)
        for combo in itertools.combinations(range(n), tau)
    )
    return atoms


@functools.cache
def atom_rows(n, tau):
    """The index sets of ``enumerate_sampling(n, tau, q)``, in its order, as
    two read-only index arrays: the n singletons ``(n, 1)``, then the
    subsets ``(binomial(n, tau), tau)``.  Built once per (n, tau) and kept:
    the enumeration cap bounds all of them together to about 0.4 MB."""
    _check_sizes(n, tau)
    rows = (np.arange(n).reshape(n, 1), np.array(list(itertools.combinations(range(n), tau))))
    for r in rows:
        r.setflags(write=False)
    return rows


def _scatter_atoms(n, tau, q, outer):
    """Sum_atoms p * (Pi, or Pi e e^T Pi if ``outer``) for every q at once,
    shape ``q.shape + (n, n)``: one in-order ``np.add.at`` per group, so
    each entry takes its atoms in ``enumerate_sampling`` order."""
    _check_sizes(n, tau)  # before any enumeration
    qa = _check_q(q)
    qf = qa.reshape(-1)
    out = np.zeros((qf.size, n, n))
    for mass, idx in zip(((1.0 - qf) / n, qf / math.comb(n, tau)), atom_rows(n, tau)):
        if outer:
            np.add.at(out, (slice(None), idx[:, :, None], idx[:, None, :]),
                      mass[:, None, None, None])
        else:
            np.add.at(out, (slice(None), idx, idx), mass[:, None, None])
    return out.reshape(qa.shape + (n, n))


def oracle_expected_projection(n, tau, q):
    """Mean of the coordinate projectors, Sum_atoms p * Pi, as a dense matrix
    (one per q for an array q)."""
    return _scatter_atoms(n, tau, q, outer=False)


def bias_correction_of(diag):
    """The constant c with c * E[Pi] e = e, given the diagonal of the projector
    mean (which enumeration shows to be constant): its reciprocal.  A stack
    of diagonals ``(..., n)`` gives one constant per diagonal."""
    if np.max(np.abs(diag - diag[..., :1])) > 1e-14:
        raise AssertionError("projector mean diagonal is not constant")
    return 1.0 / diag[..., 0]


def oracle_bias_correction(n, tau, q):
    """The constant c with c * E[Pi] e = e, from the enumerated projector mean."""
    return bias_correction_of(np.diagonal(oracle_expected_projection(n, tau, q), 0, -2, -1))


def oracle_sketch_residual(n, tau, q):
    """Largest eigenvalue of c^2 E[(Pi e)(Pi e)^T] - e e^T, by dense eigensolve:
    a float, or an array for an array q."""
    top = oracle_residual_eigenvalues(n, tau, q)[..., -1]
    return float(top) if top.ndim == 0 else top


def oracle_residual_eigenvalues(n, tau, q):
    """All eigenvalues, ascending, of the residual matrix
    c^2 E[(Pi e)(Pi e)^T] - e e^T (it has at most two distinct), shape
    ``q.shape + (n,)``: one stacked eigensolve over every q.

    One enumeration: since (Pi e)_i^2 = (Pi e)_i, the diagonal of the second
    moment is the projector mean's diagonal, given the same additions in the
    same order, so c is read off it bit for bit."""
    m = _scatter_atoms(n, tau, q, outer=True)
    c = bias_correction_of(np.diagonal(m, 0, -2, -1))[..., None, None]
    m *= c * c
    m -= np.ones((n, n))
    w, _ = symmetric_eigen(m)
    return w


def oracle_smoothness_max_term(levels, tau):
    """max_i Sum_{subsets C of size tau containing i} mean(levels[C]),
    by explicit subset enumeration: a float for one level set, an array of
    ``K`` for a ``(K, n)`` stack of them."""
    levels = np.asarray(levels, dtype=np.float64)
    n = levels.shape[-1]
    _check_sizes(n, tau)
    if tau == 1:
        # each index appears in exactly one singleton subset
        top = levels.max(axis=-1)
    else:
        combos = atom_rows(n, tau)[1]
        totals = np.zeros(levels.shape)
        # a C-ordered gather, so that each subset mean is one contiguous row
        # reduction (pairwise from 8 entries on), whatever the stack's size
        means = np.take(levels, combos, axis=-1).mean(axis=-1)
        np.add.at(totals, (..., combos), means[..., None])
        top = totals.max(axis=-1)
    return float(top) if top.ndim == 0 else top


def assemble_expected_smoothness(n, tau, q, c, max_term, l_max):
    """c^2/n (q tau / C(n, tau)) max_term + c^2 (1-q)/n^2 L_max, from an
    enumerated bias correction c and max term; numpy arguments broadcast."""
    return (
        c * c / n * (q * tau / math.comb(n, tau)) * max_term
        + c * c * (1.0 - q) / (n * n) * l_max
    )


def oracle_expected_smoothness(n, tau, q, levels):
    """Expected smoothness constant assembled from the enumerated max term."""
    levels = np.asarray(levels, dtype=np.float64)
    return assemble_expected_smoothness(
        n, tau, q, oracle_bias_correction(n, tau, q),
        oracle_smoothness_max_term(levels, tau), float(levels.max()),
    )


def oracle_expected_direction(data, loss, x, table, q, tau):
    """Probability-weighted mean of the solver's update direction.

    Enumerates both branches of the interpolated step (minibatch with mass
    q spread over subsets, single sample with mass (1-q)/n each) for a
    fixed iterate x and gradient table.  The result should equal the full
    gradient at x whatever the table contains.
    """
    n = data.n
    x = np.asarray(x, dtype=np.float64)
    table = np.asarray(table, dtype=np.float64)
    if table.shape != (data.d, n):
        raise InvalidInputError(f"table has shape {table.shape}, expected ({data.d}, {n})")
    grad = gradient_fn(data, loss)
    grads = [grad(x, i) for i in range(n)]
    col_sum = table.sum(axis=1)
    c = n / (q * (tau - 1) + 1.0)
    mean = np.zeros(data.d)
    for atom in enumerate_sampling(n, tau, q):
        diff = np.zeros(data.d)
        for j in atom.indices:
            diff += grads[j] - table[:, j]
        mean += atom.probability * ((c / n) * diff + col_sum / n)
    return mean
