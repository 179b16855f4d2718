"""Closed-form approximate solution of the damped field in the dressed frame.

Core objects are the dressed-diagonal sums F*_n(t), the ground-sector value
F*_{-1}(t) and the intra-doublet off-diagonal amplitudes.  F*_n is evaluated
directly from its closed form

    F*_n(t) = exp(-2 kappa t [(n + 1/2)(n_b + 1) + n_b])
              * sum_{j>=n} G(j+3/2)/G(n+3/2) x^{j-n}/(j-n)! p_j,

with x = 1 - exp(-2 kappa (n_b + 1) t) and all gamma-function ratios kept in
log space (every term is non-negative, so the sum is stable).  The kernel is
upper triangular: exactly 1 on the diagonal and 0 below it.  The parts of its
log that do not depend on time, log G(j+3/2) - log G(n+3/2), log (j-n)! and
j - n, live in one module-level table packed over the upper triangle n <= j,
column by column, so the size-N triangle is the first N (N + 1) / 2 entries
of the table for the largest truncation N_max seen.  With it goes the
N_max x N_max boolean lower triangle: its top-left N x N corner, read row by
row, selects the entries (j, n), n <= j, of the transposed kernel in the
table's order, so one masked assignment scatters a build.  The table
keeps 3 N_max (N_max + 1) / 2 8-byte floats and N_max^2 bytes (about 0.53 MB
at N_max = 202).  Each build evaluates exp(ratio + (j-n) log x - fact) on the
triangle only and scatters it through the mask into a zeroed N x N matrix.

`f_star_operator(size, damping, t)` builds the time-t part, decay_n and
the kernel, and returns the function that applies it to an (F, N) stack of
fields, one kernel-vector product per row; `f_star` is the two steps
composed.  The kernel does not depend on the field, so a caller that
propagates several fields over one t (the atom passages of `observables`)
builds it once.

F*_{-1} comes from unitarity, 2 (1 - sum_n F*_n), and not from its
alternating double-sum form, which loses ~15 digits near N = 120 (the test
suite keeps that form as a small-truncation cross-check).

The intra-doublet amplitudes decay as e^{-alpha_n t}; `doublet_decay_rate`
is the one place alpha_n is written, for `observables` and `resummation` too.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import ConsistencyError, ValidityWarning
from .states import PhotonDistribution

#: Negative values of F*_n larger than this (in magnitude) are treated as bugs.
NEGATIVE_CLIP = 1e-12


@dataclass(frozen=True)
class DampingParams:
    """Cavity decay rate kappa (s^-1) and thermal occupation n_b."""

    kappa: float
    n_thermal: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.kappa) and math.isfinite(self.n_thermal)):
            raise ValueError("kappa and n_thermal must be finite")
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if self.n_thermal < 0:
            raise ValueError("n_thermal must be non-negative")
        if self.n_thermal > 0.5:
            warnings.warn(
                "n_thermal > 0.5 is outside the small-n_b regime of the "
                "closed-form solution",
                ValidityWarning,
                stacklevel=3,  # the caller of the generated __init__
            )

    @property
    def t_cav(self):
        """Cavity field decay time 1/(2 kappa)."""
        return 1.0 / (2.0 * self.kappa)


def doublet_decay_rate(damping, n):
    """Decay rate alpha_n = 2 kappa (2 n_b (n + 1) + n + 1/2) of the
    intra-doublet coherence at level n (an array of levels or a real nbar)."""
    k, nb = damping.kappa, damping.n_thermal
    return 2.0 * k * (2.0 * nb * (n + 1.0) + n + 0.5)


def _probs_of(p0):
    """p0 as a 1-d float array of finite entries, else `ValueError`."""
    if isinstance(p0, PhotonDistribution):
        return p0.probs
    probs = np.asarray(p0, dtype=float)
    if probs.ndim != 1 or not np.all(np.isfinite(probs)):
        raise ValueError("p0 must be a 1-d array of finite probabilities")
    return probs


#: (log G(j+3/2) - log G(n+3/2), log (j-n)!, j - n) over n <= j < N_max,
#: ordered by j then n, and the N_max x N_max lower-triangle mask whose
#: True entries (j, n), in row-major order, are those (n, j).  Replaced as
#: one tuple, so a reader never mixes parts of two sizes.
_PACKED_TABLE = (np.empty(0),) * 3 + (np.empty((0, 0), dtype=bool),)


def _packed_table(size):
    """The size-`size` upper triangle of the time-independent kernel table
    and the mask that scatters it into the transposed kernel."""
    global _PACKED_TABLE
    table = _PACKED_TABLE
    if table[3].shape[0] < size:
        lower = np.tri(size, dtype=bool)
        jj, nn = (index.astype(float) for index in np.nonzero(lower))
        diff = jj - nn
        table = (gammaln(jj + 1.5) - gammaln(nn + 1.5), gammaln(diff + 1.0),
                 diff, lower)
        _PACKED_TABLE = table
    count = size * (size + 1) // 2
    return (*(part[:count] for part in table[:3]), table[3][:size, :size])


def f_star_operator(size, damping, t):
    """F*(t) on `size` levels as a function of the field: an (F, size)
    stack of distributions -> the stack of F*_n(t), row by row.

    The time-t part, decay_n and the kernel, is built here once; the
    returned function only multiplies, so one build serves every field
    propagated over t.  Where 2 kappa (n_b + 1) t is 0 in floating point
    (t = 0, or t so small that it underflows) the kernel is the identity
    and decay_n exactly 1, and the function returns a copy of the stack.
    """
    if not 0.0 <= t < math.inf:
        raise ValueError("time must be finite and non-negative")
    k, nb = damping.kappa, damping.n_thermal
    x = -np.expm1(-2.0 * k * (nb + 1.0) * t)
    if x == 0.0:
        return np.copy
    n = np.arange(size, dtype=float)
    decay = np.exp(-2.0 * k * t * ((n + 0.5) * (nb + 1.0) + nb))
    ratio, fact, diff, lower = _packed_table(size)
    values = diff * math.log(x)
    values += ratio
    values -= fact
    np.exp(values, out=values)
    kernel = np.zeros((size, size))
    kernel.T[lower] = values

    def apply(stack):
        # one matrix-vector product per row: a matrix product over the
        # stack would let BLAS pick a summation order by the stack's size
        out = np.empty(stack.shape)
        for row, field in zip(out, stack):
            np.matmul(kernel, field, out=row)
        out *= decay
        if np.any(out < -NEGATIVE_CLIP):
            raise ConsistencyError(
                f"F*_n went negative beyond roundoff: min {out.min():.3e}"
            )
        return np.clip(out, 0.0, None, out=out)

    return apply


def f_star(p0, damping, t):
    """Closed-form F*_n(t) for initial distribution p0 (may be unnormalized)."""
    probs = _probs_of(p0)
    return f_star_operator(probs.size, damping, t)(probs[None])[0]


def unitarity_ground(probs, f):
    """F*_{-1} = 2 (sum_n p_n - sum_n F*_n) for F*_n = f, clamped to [0, 2];
    one value per row of a stack."""
    value = 2.0 * (probs.sum(axis=-1) - f.sum(axis=-1))
    return np.minimum(np.maximum(value, 0.0), 2.0)


def f_star_ground(p0, damping, t):
    """F*_{-1}(t) from unitarity: 2 (1 - sum_n F*_n), clamped to [0, 2].

    For an unnormalized input the role of 1 is played by the input mass.
    """
    probs = _probs_of(p0)
    return unitarity_ground(probs, f_star(probs, damping, t))


def offdiag_decay(p0, damping, t):
    """Intra-doublet amplitudes <psi_n^+|W|psi_n^-> = (1/2) e^{-alpha_n t} p_n."""
    probs = _probs_of(p0)
    if not 0.0 <= t < math.inf:
        raise ValueError("time must be finite and non-negative")
    alpha = doublet_decay_rate(damping, np.arange(probs.size))
    return 0.5 * np.exp(-alpha * t) * probs
