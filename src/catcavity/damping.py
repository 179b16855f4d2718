"""Closed-form approximate solution of the damped field in the dressed frame.

F*_n(t), the dressed-diagonal sum at level n, is evaluated directly from its
closed form

    F*_n(t) = exp(-2 kappa t [(n + 1/2)(n_b + 1) + n_b])
              * sum_{j>=n} G(j+3/2)/G(n+3/2) x^{j-n}/(j-n)! p_j,

with x = 1 - exp(-2 kappa (n_b + 1) t) and all gamma-function ratios kept in
log space (every term is non-negative, so the sum is stable).

F*_{-1} comes from unitarity, 2 (1 - sum_n F*_n), and not from its
alternating double-sum form, which loses ~15 digits near N = 120 (the test
suite keeps that form as a small-truncation cross-check).
"""

import math
import warnings

import numpy as np
from scipy.special import gammaln

from .errors import ConsistencyError, ValidityWarning, _probabilities, _times
# benchmarks/workloads.py reads damping.DampingParams
from .params import DampingParams  # noqa: F401
from .states import PhotonDistribution

#: Negative values of F*_n larger than this (in magnitude) are treated as bugs.
NEGATIVE_CLIP = 1e-12

#: Kernel entries one chunk of times holds: 2**17 8-byte floats, 1 MiB, so
#: that a chunk's kernels stay in a 2 MiB L2 cache while every field is
#: propagated through them (8 times at 121 levels, 3 at 202, 120 at 33).
KERNEL_CHUNK = 2 ** 17


def _warn_high_thermal(damping, stacklevel):
    """Warn when n_b is outside the small-n_b regime of the closed form;
    `stacklevel` is what the caller would pass to `warnings.warn`.  The
    oracle takes the same `DampingParams` and does not warn."""
    if damping.n_thermal > 0.5:
        warnings.warn(
            "n_thermal > 0.5 is outside the small-n_b regime of the "
            "closed-form solution",
            ValidityWarning,
            stacklevel=stacklevel + 1,
        )


def doublet_decay_rate(damping, n):
    """Decay rate alpha_n = 2 kappa (2 n_b (n + 1) + n + 1/2) of the
    intra-doublet coherence at level n (an array of levels or a real nbar)."""
    k, nb = damping.kappa, damping.n_thermal
    return 2.0 * k * (2.0 * nb * (n + 1.0) + n + 0.5)


def _probs_of(p0):
    """The probabilities of a PhotonDistribution, or p0 checked."""
    if isinstance(p0, PhotonDistribution):
        return p0.probs
    return _probabilities(p0, "p0")


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


def _f_star_chunks(size, damping, times):
    """The F* kernels on `size` levels at each checked time of the 1-d array
    `times`, a chunk of times at a time: an iterator of (chunk, kernels,
    decay), where `chunk` slices `times`, `kernels` is the (C, size, size)
    stack and `decay` the (C, 1, size) decay_n of the chunk's C times.
    `kernels` is a view of the one slab of the call, valid until the next
    chunk.  Where 2 kappa (n_b + 1) t is 0 in floating point (t = 0, or t
    so small that it underflows) the kernel is the identity and decay_n
    exactly 1, so that time's F*_n is its field bit for bit.
    """
    k, nb = damping.kappa, damping.n_thermal
    # x = 1 - exp(-2 kappa (n_b + 1) t); log x only where x is not 0
    xs = [-x for x in np.expm1(-2.0 * k * (nb + 1.0) * times).tolist()]
    logs = [math.log(x) if x else 0.0 for x in xs]
    scaled = (-2.0 * k * times)[:, None, None]
    level = np.arange(0.5, size) * (nb + 1.0) + nb
    ratio, fact, diff, lower = _packed_table(size)
    step = max(1, KERNEL_CHUNK // (size * size))
    # reused by every chunk: values allocated per chunk, held over the
    # yield, would fault in fresh pages each time
    values = np.empty((min(step, times.size), diff.size))
    slab = np.zeros((min(step, times.size), size, size))
    for start in range(0, times.size, step):
        chunk = slice(start, start + step)
        part = np.multiply.outer(logs[chunk], diff,
                                 out=values[:len(logs[chunk])])
        part += ratio
        part -= fact
        np.exp(part, out=part)
        kernels = slab[:len(part)]
        for kernel, x, row in zip(kernels, xs[chunk], part):
            kernel.T[lower] = row if x else diff == 0
        yield chunk, kernels, np.exp(scaled[chunk] * level)


def _f_star_apply(kernels, decay, stack):
    """The (C, F, size) stack of F*_n(t) = decay_n (kernel @ field) for a
    chunk of `_f_star_chunks`, clipped at 0.  `stack` is (F, size), the same
    fields at every time, or (C, F, size), one stack per time."""
    # one stacked matmul per chunk, which NumPy runs as one gemv per (time,
    # field) pair, so no sum's order depends on how many pairs there are; a
    # GEMM over times or fields would let BLAS block by their number and
    # change bits
    out = np.matmul(kernels[:, None], stack[..., None])[..., 0]
    out *= decay
    if (out < -NEGATIVE_CLIP).any():
        raise ConsistencyError(
            f"F*_n went negative beyond roundoff: min {out.min():.3e}"
        )
    return out.clip(0.0, None, out=out)


def _f_star(probs, damping, t):
    """F*_n(t) of the checked probabilities `probs` at one time; warns of
    nothing, so that each public entry warns at its own caller's line."""
    times = _times(t, one=True).reshape(1)
    [(_, kernels, decay)] = _f_star_chunks(probs.size, damping, times)
    return _f_star_apply(kernels, decay, probs[None])[0, 0]


def f_star(p0, damping, t):
    """Closed-form F*_n(t) for initial distribution p0 (may be unnormalized)."""
    _warn_high_thermal(damping, 2)
    return _f_star(_probs_of(p0), damping, t)


def _unitarity_ground(probs, f):
    """F*_{-1} = 2 (sum_n p_n - sum_n F*_n) for F*_n = f, clamped to [0, 2];
    one value per row of a stack."""
    value = 2.0 * (probs.sum(axis=-1) - f.sum(axis=-1))
    return np.minimum(np.maximum(value, 0.0), 2.0)


def f_star_ground(p0, damping, t):
    """F*_{-1}(t) from unitarity: 2 (1 - sum_n F*_n), clamped to [0, 2].

    For an unnormalized input the role of 1 is played by the input mass.
    """
    probs = _probs_of(p0)
    _warn_high_thermal(damping, 2)
    return _unitarity_ground(probs, _f_star(probs, damping, t))
