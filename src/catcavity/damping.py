"""Closed-form approximate solution of the damped field in the dressed frame.

Core objects are the dressed-diagonal sums F*_n(t), the ground-sector value
F*_{-1}(t) and the intra-doublet off-diagonal amplitudes.  F*_n is evaluated
directly from its closed form

    F*_n(t) = exp(-2 kappa t [(n + 1/2)(n_b + 1) + n_b])
              * sum_{j>=n} G(j+3/2)/G(n+3/2) x^{j-n}/(j-n)! p_j,

with x = 1 - exp(-2 kappa (n_b + 1) t) and all gamma-function ratios kept in
log space (every term is non-negative, so the sum is stable).  The parts of
the log kernel that do not depend on time, log G(j+3/2) - log G(n+3/2),
log (j-n)! and j - n, live in one module-level table that grows to the
largest truncation N_max seen and is sliced to N x N per call; it keeps
3 N_max^2 8-byte floats (about 1 MB at N_max = 202).  log (j-n)! is +inf
below the diagonal, so the kernel is one exp(ratio + (j-n) log x - fact)
that is exactly 1 on the diagonal and 0 below it.

`f_star_operator(size, damping, t)` builds the time-t part, decay_n and
the N x N kernel, and returns the function that applies it to a field;
`f_star` is the two steps composed.  The kernel does not depend on the
field, so a caller that propagates several fields over one t (the atom
passages of `observables`) builds it once.

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
    if isinstance(p0, PhotonDistribution):
        return p0.probs
    return np.asarray(p0, dtype=float)


#: (log G(j+3/2) - log G(n+3/2), log (j-n)!, j - n) for n, j < N_max.
#: Replaced as one tuple, so a reader never mixes parts of two sizes.
_KERNEL_TABLE = (np.empty((0, 0)),) * 3


def _kernel_table(size):
    """Top-left size x size corner of the time-independent kernel table."""
    global _KERNEL_TABLE
    table = _KERNEL_TABLE
    if table[0].shape[0] < size:
        n = np.arange(size, dtype=float)
        jj = n[None, :]
        nn = n[:, None]
        diff = jj - nn
        table = (gammaln(jj + 1.5) - gammaln(nn + 1.5), gammaln(diff + 1.0),
                 diff)
        _KERNEL_TABLE = table
    return tuple(part[:size, :size] for part in table)


def f_star_operator(size, damping, t):
    """F*(t) on `size` levels as a function of the field: probs -> F*_n(t).

    The time-t part, decay_n and the kernel, is built here once; the
    returned function only multiplies, so one build serves every field
    propagated over t.  At t = 0 it returns a copy of the field.
    """
    if not 0.0 <= t < math.inf:
        raise ValueError("time must be finite and non-negative")
    if t == 0.0:
        return np.copy
    k, nb = damping.kappa, damping.n_thermal
    n = np.arange(size, dtype=float)
    x = -np.expm1(-2.0 * k * (nb + 1.0) * t)
    decay = np.exp(-2.0 * k * t * ((n + 0.5) * (nb + 1.0) + nb))
    ratio, fact, diff = _kernel_table(size)
    # fact is +inf below the diagonal, where the kernel is exp(-inf) = 0
    kernel = diff * math.log(x)
    kernel += ratio
    kernel -= fact
    np.exp(kernel, out=kernel)

    def apply(probs):
        out = decay * (kernel @ probs)
        if np.any(out < -NEGATIVE_CLIP):
            raise ConsistencyError(
                f"F*_n went negative beyond roundoff: min {out.min():.3e}"
            )
        return np.clip(out, 0.0, None)

    return apply


def f_star(p0, damping, t):
    """Closed-form F*_n(t) for initial distribution p0 (may be unnormalized)."""
    probs = _probs_of(p0)
    return f_star_operator(probs.size, damping, t)(probs)


def unitarity_ground(probs, f):
    """F*_{-1} = 2 (sum_n p_n - sum_n F*_n) for F*_n = f, clamped to [0, 2]."""
    value = 2.0 * (probs.sum() - f.sum())
    return min(max(value, 0.0), 2.0)


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
