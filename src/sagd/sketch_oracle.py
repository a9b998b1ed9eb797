"""Brute-force enumeration of the interpolated sampling distribution.

These routines recompute, by explicit enumeration over all singleton and
tau-subset outcomes, the quantities that :mod:`sagd.complexity` produces in
closed form: the bias correction, the projector mean, the sketch residual,
and the max term inside the expected smoothness constant.  They exist to
test the closed forms, so they deliberately avoid every shortcut the closed
forms rely on (the residual eigenvalue comes from a dense eigensolve, not
from the circulant structure).  Every atom is added in ``enumerate_sampling``
order, by one in-order ``np.add.at`` per group: an atom loop's bits exactly.
"""

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


def enumerate_sampling(n, tau, q):
    """All atoms of the sampling law: n singletons with mass (1-q)/n each
    and binomial(n, tau) subsets with mass q/binomial(n, tau) each."""
    if n > ENUMERATION_CAP:
        raise EnumerationLimitError(
            f"enumeration is capped at n <= {ENUMERATION_CAP}, got n = {n}"
        )
    if not 1 <= tau <= n:
        raise InvalidInputError(f"need 1 <= tau <= n, got tau={tau}, n={n}")
    if not 0.0 <= q <= 1.0:
        raise InvalidInputError(f"q must be in [0, 1], got {q}")
    atoms = [SamplingAtom((1.0 - q) / n, (j,)) for j in range(n)]
    subset_mass = q / math.comb(n, tau)
    atoms.extend(
        SamplingAtom(subset_mass, combo)
        for combo in itertools.combinations(range(n), tau)
    )
    return atoms


def _atom_groups(n, tau, q):
    """The atoms of ``enumerate_sampling(n, tau, q)``, in its order, as two
    ``(mass, index rows)`` array pairs: the n singletons, then the subsets."""
    atoms = enumerate_sampling(n, tau, q)
    return [(np.array([a.probability for a in run]), np.array([a.indices for a in run]))
            for run in (atoms[:n], atoms[n:])]


def oracle_expected_projection(n, tau, q):
    """Mean of the coordinate projectors, Sum_atoms p * Pi, as a dense matrix."""
    out = np.zeros((n, n))
    for mass, idx in _atom_groups(n, tau, q):
        np.add.at(out, (idx, idx), mass[:, None])
    return out


def bias_correction_of(diag):
    """The constant c with c * E[Pi] e = e, given the diagonal of the projector
    mean (which enumeration shows to be constant): its reciprocal."""
    if np.max(np.abs(diag - diag[0])) > 1e-14:
        raise AssertionError("projector mean diagonal is not constant")
    return 1.0 / diag[0]


def oracle_bias_correction(n, tau, q):
    """The constant c with c * E[Pi] e = e, from the enumerated projector mean."""
    return bias_correction_of(np.diag(oracle_expected_projection(n, tau, q)))


def oracle_sketch_residual(n, tau, q):
    """Largest eigenvalue of c^2 E[(Pi e)(Pi e)^T] - e e^T, by dense eigensolve."""
    return float(oracle_residual_eigenvalues(n, tau, q)[-1])


def oracle_residual_eigenvalues(n, tau, q):
    """All eigenvalues, ascending, of the residual matrix
    c^2 E[(Pi e)(Pi e)^T] - e e^T (it has at most two distinct).

    One enumeration: since (Pi e)_i^2 = (Pi e)_i, the diagonal of the second
    moment is the projector mean's diagonal, given the same additions in the
    same order, so c is read off it bit for bit."""
    m = np.zeros((n, n))
    for mass, idx in _atom_groups(n, tau, q):
        np.add.at(m, (idx[:, :, None], idx[:, None, :]), mass[:, None, None])
    c = bias_correction_of(np.diag(m))
    m *= c * c
    m -= np.ones((n, n))
    w, _ = symmetric_eigen(m)
    return w


def oracle_smoothness_max_term(levels, tau):
    """max_i Sum_{subsets C of size tau containing i} mean(levels[C]),
    by explicit subset enumeration."""
    levels = np.asarray(levels, dtype=np.float64)
    n = levels.size
    if n > ENUMERATION_CAP:
        raise EnumerationLimitError(
            f"enumeration is capped at n <= {ENUMERATION_CAP}, got n = {n}"
        )
    if tau == 1:
        # each index appears in exactly one singleton subset
        return float(levels.max())
    if not 2 <= tau <= n:
        raise InvalidInputError(f"need 1 <= tau <= n, got tau={tau}, n={n}")
    combos = np.array(list(itertools.combinations(range(n), tau)))
    totals = np.zeros(n)
    np.add.at(totals, combos, levels[combos].mean(axis=1)[:, None])
    return float(totals.max())


def assemble_expected_smoothness(n, tau, q, c, max_term, l_max):
    """c^2/n (q tau / C(n, tau)) max_term + c^2 (1-q)/n^2 L_max, from an
    enumerated bias correction c and max term."""
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
