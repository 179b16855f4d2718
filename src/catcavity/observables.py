"""Atom-detection probabilities, two-atom joints, correlation and decoherence time.

All operations here use the analytic dressed-frame solution; they require
resonance.  Two-atom joint probabilities propagate the unnormalized
conditioned field distribution through the elapsed time t_B - t_A, so
P(s1, s2) summed over s2 recovers the single-atom probability P(s1)
exactly (the formulas are a joint-probability decomposition).
`conditioned_field` returns that distribution as a plain array whose sum is
the probability of the outcome.

Every observable takes one path.  An `ExperimentConfig` builds its photon
distribution once, when it is made.  `_passages` is the one entry: one
config, or a sequence that shares jc and damping (the coherent field and
the cat of a figure), becomes (F, N) stacks of fields of equal truncation,
one row per config.  `_table` is the one loop over times: it hands each
observable's read the first atom's passage and the second atom's joint.
Every passage over a time t applies one time-t operator, the F*_n kernel of
`damping.f_star_operator` plus the oscillation factor; within one call it is
built once per time and truncation and shared by every row of the stack and
by the passages at that time (the two of a P_++(t, 2t) point, the three of
an eta(t) point).  At most one operator per truncation is alive per call,
and each row keeps its own kernel-vector product.
"""

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Union

import numpy as np

from .damping import (DampingParams, doublet_decay_rate, f_star_operator,
                      unitarity_ground)
from .dressed import JCParams, _check_outcome, _require_resonance
from .errors import ConsistencyError, ValidityWarning
from .states import (
    CatSpec,
    PhotonDistribution,
    cat_distribution,
    cat_mean_photons,
    default_truncation,
)

#: Probabilities below this are treated as zero when forming conditionals.
ETA_EPSILON = 1e-6

#: kappa/g above this is outside the secular-approximation comfort zone.
SECULAR_RATIO = 0.1


@dataclass(frozen=True)
class ExperimentConfig:
    """One cavity experiment: JC parameters, damping and the initial field.

    truncation 0 resolves the Fock cutoff from the field; a positive integer
    sets it.  The photon distribution is built once, here, and a truncation
    too small to hold the field raises `TruncationError` at construction.
    """

    jc: JCParams
    damping: DampingParams
    initial_field: Union[CatSpec, PhotonDistribution]
    truncation: int = 0

    def __post_init__(self):
        if (isinstance(self.truncation, bool)
                or not isinstance(self.truncation, (int, np.integer))
                or self.truncation < 0):
            raise ValueError(
                f"truncation must be 0 (resolved from the field) or a "
                f"positive integer, got {self.truncation!r}")
        dist = self.initial_field
        if not isinstance(dist, PhotonDistribution):
            dist = cat_distribution(dist, self.truncation or default_truncation(
                cat_mean_photons(dist)))
        if 0 < self.truncation != dist.truncation:
            raise ValueError(
                f"truncation {self.truncation} contradicts initial_field, "
                f"a distribution truncated at {dist.truncation}")
        object.__setattr__(self, "truncation", dist.truncation)
        # not a dataclass field, so ==, hash and repr ignore it
        object.__setattr__(self, "_distribution", dist)
        if self.damping.kappa / self.jc.g >= SECULAR_RATIO:
            warnings.warn(
                f"kappa/g = {self.damping.kappa / self.jc.g:.3g} is at or above "
                f"{SECULAR_RATIO}; the secular approximation behind the "
                "analytic path degrades here",
                ValidityWarning,
                stacklevel=3,  # the caller of the generated __init__
            )

    def distribution(self):
        """Initial photon distribution at the configured truncation."""
        return self._distribution

    def mean_photons(self):
        if isinstance(self.initial_field, PhotonDistribution):
            return self.initial_field.mean()
        return cat_mean_photons(self.initial_field)


@dataclass(frozen=True)
class _Passage:
    """One atom passage of duration t through an (F, N) stack of fields p,
    one row per config.

    f is F*_n(t) of each row, osc the oscillation term and ground the
    clamped unitarity value F*_{-1}(t) of each row, as `_runner` makes
    them.  Every observable is built from these, one value per row.
    """

    probs: np.ndarray
    f: np.ndarray
    osc: np.ndarray
    ground: np.ndarray

    def p_plus(self):
        """P_+ of each row, for normalized input fields."""
        return 0.5 - 0.25 * self.ground + 0.5 * self.osc.sum(axis=1)

    def joint_plus(self):
        """Weight of a "+" detection in each row, clipped to [0, sum_n p_n]."""
        value = 0.5 * self.f.sum(axis=1) + 0.5 * self.osc.sum(axis=1)
        return np.minimum(np.maximum(value, 0.0), self.probs.sum(axis=1))

    def conditioned(self, outcome):
        """Unnormalized field distributions after detecting `outcome`."""
        if outcome == "+":
            dist = 0.5 * (self.f + self.osc)
        else:
            dist = np.empty_like(self.f)
            dist[:, 0] = 0.5 * self.ground
            dist[:, 1:] = 0.5 * (self.f[:, :-1] - self.osc[:, :-1])
        if dist.min() < -1e-10:
            raise ConsistencyError(
                f"conditioned distribution entry {dist.min():.3e} below -1e-10"
            )
        return np.clip(dist, 0.0, None)


def _passages(configs):
    """(count, [(rows, probs, run)]) for one config or a sequence of configs
    that share jc and damping, grouped by truncation: each group is the
    (F, N) stack `probs` of the rows `rows` of the sequence, with its own
    `_runner`.  A field is never re-truncated.
    """
    configs = ([configs] if isinstance(configs, ExperimentConfig)
               else list(configs))
    if not configs:
        raise ValueError("need at least one config")
    jc, damping = configs[0].jc, configs[0].damping
    if any(c.jc != jc or c.damping != damping for c in configs):
        raise ValueError("configs in one call must share jc and damping")
    _require_resonance(jc)
    groups = {}
    for row, config in enumerate(configs):
        groups.setdefault(config.truncation, []).append(row)
    return len(configs), [
        (np.array(rows),
         np.array([configs[r].distribution().probs for r in rows]),
         _runner(jc, damping, truncation + 1))
        for truncation, rows in groups.items()]


def _runner(jc, damping, size):
    """run(fields, t): one passage of duration t through a stack of fields
    with `size` levels.

    The time-t operator, the F* kernel (`f_star_operator`) and the factor
    e^{-alpha_n t} cos(2 g t sqrt(n+1)) of the oscillation term, is built
    once for the whole stack and reused while consecutive passages share t,
    as the passages of one P_++(t, 2t) or eta(t) point do; only the latest
    one is kept.
    """
    n = np.arange(size)
    alpha = doublet_decay_rate(damping, n)
    root = np.sqrt(n + 1.0)
    latest = {}

    def run(fields, t):
        if t not in latest:
            latest.clear()
            latest[t] = (
                f_star_operator(size, damping, t),
                np.exp(-alpha * t) * np.cos(2.0 * jc.g * t * root))
        f_star_at, factor = latest[t]
        f = f_star_at(fields)
        return _Passage(fields, f, factor * fields, unitarity_ground(fields, f))

    return run


def _joint(passage, run, tau, s1, s2):
    """P(s1, s2) of each row from the first atom's passage and the delay tau."""
    cond = passage.conditioned(s1)
    weight = cond.sum(axis=1)
    joint_plus = run(cond, tau).joint_plus()
    return joint_plus if s2 == "+" else weight - joint_plus


def _table(configs, t_a, tau, read, width=1):
    """The (width, configs, times) array of read(passage, joint), the one
    loop over times of every observable.

    At each first-passage time t_a[i], `read` gets the first atom's passage
    and joint(s1, s2), the joint probability of each row with the second
    atom's passage run over the delay tau[i].
    """
    count, stacks = _passages(configs)
    out = np.empty((width, count, t_a.size))
    for rows, probs, run in stacks:
        for i, (ta, delay) in enumerate(zip(t_a, tau)):
            passage = run(probs, ta)
            out[:, rows, i] = read(
                passage, functools.partial(_joint, passage, run, delay))
    return out


def _shaped(out, configs, *t):
    """A (configs, times) result in the caller's shape: one config drops
    the first axis, scalar times the second, and both give a float."""
    if isinstance(configs, ExperimentConfig):
        out = out[0]
    if all(np.ndim(ti) == 0 for ti in t):
        out = out[..., 0]
    return float(out) if out.ndim == 0 else out


def _times(t):
    """t as a 1-d float array, checked finite and non-negative; a scalar or
    a 1-d array of times, nothing of more dimensions."""
    times = np.atleast_1d(np.asarray(t, dtype=float))
    if times.ndim > 1:
        raise ValueError("times must be a scalar or a 1-d array")
    if not np.all((times >= 0) & (times < math.inf)):
        raise ValueError("time must be finite and non-negative")
    return times


def p_excited(configs, t):
    """Probability P_+(t) of finding the probe atom still excited at time t.

    Accepts a scalar or an array of times.  A sequence of configs that share
    jc and damping gives one row per config.
    """
    times = _times(t)
    out = _table(configs, times, times, lambda passage, joint: passage.p_plus())
    return _shaped(out[0], configs, t)


def conditioned_field(config, t_a, outcome):
    """Unnormalized field distribution after detecting the atom as `outcome`,
    an array over n = 0..truncation whose sum is the outcome's probability.

    The "+" branch is (1/2)[F*_n + e^{-alpha_n t} cos(2 g t sqrt(n+1)) p_n];
    the "-" branch is the complementary dressed-frame combination with the
    oscillatory sign flipped and the level index shifted by one, with the
    vacuum entry fed by the ground sector F*_{-1}.  t_a is one time.
    """
    _check_outcome(outcome)
    times = _times(t_a)
    if times.size != 1:
        raise ValueError("conditioned_field takes one time t_a")
    _, [(_, probs, run)] = _passages([config])
    return run(probs, times[0]).conditioned(outcome)[0]


def p_joint(configs, t_a, t_b, s1, s2):
    """Joint probability of outcome s1 at t_A and s2 at t_B for two atoms.

    The second atom enters excited at t_A; the conditioned (unnormalized)
    field is propagated over t_B - t_A with the same diagonal-relaxation
    kernel plus oscillatory term as P_+.  For s2 = "-" the complement is
    taken within the conditioned weight.  t_A and t_B may be arrays (they
    broadcast); scalars give a float.  A sequence of configs that share jc
    and damping gives one row per config.
    """
    _check_outcome(s1, "s1")
    _check_outcome(s2, "s2")
    t_a_arr, t_b_arr = np.broadcast_arrays(_times(t_a), _times(t_b))
    if not np.all(t_a_arr <= t_b_arr):
        raise ValueError("need 0 <= t_A <= t_B < inf")
    out = _table(configs, t_a_arr, t_b_arr - t_a_arr,
                 lambda passage, joint: joint(s1, s2))
    return _shaped(out[0], configs, t_a, t_b)


def revival_curves(configs, t):
    """(P_+(t), P_++(t, 2t)) from one first passage per time.

    Equal to (p_excited(config, t), p_joint(config, t, 2t, "+", "+")), the
    two curves of a revival figure, with the first atom's passage shared and
    the second atom's passage, over 2t - t = t, run with the same operator.
    Scalar t gives two floats, an array of times two arrays.  A sequence of
    configs that share jc and damping gives one row per config, and each
    time's operator is built once for all of them.
    """
    times = _times(t)
    out = _table(configs, times, times, lambda passage, joint: (
        passage.p_plus(), joint("+", "+")), width=2)
    return _shaped(out[0], configs, t), _shaped(out[1], configs, t)


def _eta(passage, joint):
    """eta of each row from the first passage, NaN where undefined; the
    joint passages run only if some row is defined."""
    p_plus = passage.p_plus()
    p_minus = 1.0 - p_plus
    defined = ~((p_plus < ETA_EPSILON) | (p_minus < ETA_EPSILON))
    eta = np.full(p_plus.shape, np.nan)
    if defined.any():
        eta[defined] = (joint("+", "+")[defined] / p_plus[defined]
                        - joint("-", "+")[defined] / p_minus[defined])
    return eta


def eta_correlation(configs, t):
    """Two-atom correlation eta(t) = P_{++}/P_+ - P_{-+}/P_-.

    Uses equal passage delays, t = t_A = t_B - t_A.  The conditional is
    undefined when either marginal is below ETA_EPSILON: a scalar t then
    gives None, an array of times NaN at those entries.  A sequence of
    configs that share jc and damping gives one row per config (NaN where
    undefined), and each time's operator is built once for all of them.
    """
    times = _times(t)
    eta = _shaped(_table(configs, times, times, _eta)[0], configs, t)
    return None if isinstance(eta, float) and math.isnan(eta) else eta


def decoherence_time(config):
    """Decoherence time-scale t_cav / (nbar (1 + 2 n_b)) of the cat coherence.

    1 + 2 n_b is the thermal speed-up of the coherence between the two
    coherent branches: loss and thermal gain both scramble the branch phase.
    """
    nbar = config.mean_photons()
    if nbar <= 0:
        raise ValueError("decoherence time undefined for an empty field")
    return config.damping.t_cav / (nbar * (1.0 + 2.0 * config.damping.n_thermal))
