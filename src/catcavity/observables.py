"""Atom-detection probabilities, two-atom joints, correlation and decoherence time.

All operations here use the analytic dressed-frame solution; they require
resonance.  Two-atom joint probabilities propagate the unnormalized
conditioned field distribution through the elapsed time t_B - t_A, so
P(s1, s2) summed over s2 recovers the single-atom probability P(s1)
exactly (the formulas are a joint-probability decomposition).
`conditioned_field` returns that distribution as a plain array whose sum is
the probability of the outcome.

Every passage over a time t applies one time-t operator, the F*_n kernel of
`damping.f_star_operator` plus the oscillation factor; within one call it is
built once per time and shared by the passages at that time (the two of a
P_++(t, 2t) point, the three of an eta(t) point).  At most one operator is
alive per call, and each field keeps its own kernel-vector product.
"""

import math
import warnings
from dataclasses import dataclass
from typing import Union

import numpy as np

from .damping import (DampingParams, doublet_decay_rate, f_star_operator,
                      unitarity_ground)
from .dressed import JCParams, _require_resonance
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
    """One cavity experiment: JC parameters, damping and the initial field."""

    jc: JCParams
    damping: DampingParams
    initial_field: Union[CatSpec, PhotonDistribution]
    truncation: int = 0

    def __post_init__(self):
        if (isinstance(self.initial_field, PhotonDistribution)
                and 0 < self.truncation != self.initial_field.truncation):
            raise ValueError(
                f"truncation {self.truncation} contradicts initial_field, "
                f"a distribution truncated at "
                f"{self.initial_field.truncation}")
        if self.truncation <= 0:
            if isinstance(self.initial_field, PhotonDistribution):
                trunc = self.initial_field.truncation
            else:
                trunc = default_truncation(cat_mean_photons(self.initial_field))
            object.__setattr__(self, "truncation", trunc)
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
        if isinstance(self.initial_field, PhotonDistribution):
            return self.initial_field
        return cat_distribution(self.initial_field, self.truncation)

    def mean_photons(self):
        if isinstance(self.initial_field, PhotonDistribution):
            return self.initial_field.mean()
        return cat_mean_photons(self.initial_field)


@dataclass(frozen=True)
class _Passage:
    """One atom passage of duration t through a field with distribution p.

    f is F*_n(t) of p, osc the oscillation term and ground the clamped
    unitarity value F*_{-1}(t), as `_passages` makes them.  Every
    observable is built from these.
    """

    probs: np.ndarray
    f: np.ndarray
    osc: np.ndarray
    ground: float

    def p_plus(self):
        """P_+ for a normalized input field."""
        return 0.5 - 0.25 * self.ground + 0.5 * self.osc.sum()

    def joint_plus(self):
        """Weight of a "+" detection, clipped to [0, sum_n p_n]."""
        value = 0.5 * self.f.sum() + 0.5 * self.osc.sum()
        return min(max(value, 0.0), float(self.probs.sum()))

    def conditioned(self, outcome):
        """Unnormalized field distribution after detecting `outcome`."""
        if outcome == "+":
            dist = 0.5 * (self.f + self.osc)
        else:
            dist = np.empty_like(self.f)
            dist[0] = 0.5 * self.ground
            dist[1:] = 0.5 * (self.f[:-1] - self.osc[:-1])
        if dist.min() < -1e-10:
            raise ConsistencyError(
                f"conditioned distribution entry {dist.min():.3e} below -1e-10"
            )
        return np.clip(dist, 0.0, None)


def _passages(config):
    """(probs, run): the initial distribution p_n and run(field, t), one
    passage through a field with as many levels.

    The time-t operator, the F* kernel (`f_star_operator`) and the factor
    e^{-alpha_n t} cos(2 g t sqrt(n+1)) of the oscillation term, is built
    once and reused while consecutive passages share t, as the passages of
    one P_++(t, 2t) or eta(t) point do; only the latest one is kept.
    """
    probs = config.distribution().probs
    n = np.arange(probs.size)
    alpha = doublet_decay_rate(config.damping, n)
    root = np.sqrt(n + 1.0)
    latest = {}

    def run(field, t):
        if t not in latest:
            latest.clear()
            latest[t] = (
                f_star_operator(probs.size, config.damping, t),
                np.exp(-alpha * t) * np.cos(2.0 * config.jc.g * t * root))
        f_star_at, factor = latest[t]
        f = f_star_at(field)
        return _Passage(field, f, factor * field, unitarity_ground(field, f))

    return probs, run


def _times(t):
    """t as a 1-d float array, checked finite and non-negative."""
    times = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all((times >= 0) & (times < math.inf)):
        raise ValueError("time must be finite and non-negative")
    return times


def _check_outcome(outcome, name="outcome"):
    if outcome not in ("+", "-"):
        raise ValueError(f"{name} must be '+' or '-'")


def p_excited(config, t):
    """Probability P_+(t) of finding the probe atom still excited at time t.

    Accepts a scalar or an array of times.
    """
    _require_resonance(config.jc)
    probs, run = _passages(config)
    out = np.array([run(probs, ti).p_plus() for ti in _times(t)])
    if np.ndim(t) == 0:
        return float(out[0])
    return out


def conditioned_field(config, t_a, outcome):
    """Unnormalized field distribution after detecting the atom as `outcome`,
    an array over n = 0..truncation whose sum is the outcome's probability.

    The "+" branch is (1/2)[F*_n + e^{-alpha_n t} cos(2 g t sqrt(n+1)) p_n];
    the "-" branch is the complementary dressed-frame combination with the
    oscillatory sign flipped and the level index shifted by one, with the
    vacuum entry fed by the ground sector F*_{-1}.
    """
    _require_resonance(config.jc)
    if not 0.0 <= t_a < math.inf:
        raise ValueError("time must be finite and non-negative")
    _check_outcome(outcome)
    probs, run = _passages(config)
    return run(probs, t_a).conditioned(outcome)


def _joint(passage, run, tau, s1, s2):
    """P(s1, s2) from the first atom's passage and the delay tau."""
    cond = passage.conditioned(s1)
    weight = float(cond.sum())
    joint_plus = run(cond, tau).joint_plus()
    return joint_plus if s2 == "+" else weight - joint_plus


def p_joint(config, t_a, t_b, s1, s2):
    """Joint probability of outcome s1 at t_A and s2 at t_B for two atoms.

    The second atom enters excited at t_A; the conditioned (unnormalized)
    field is propagated over t_B - t_A with the same diagonal-relaxation
    kernel plus oscillatory term as P_+.  For s2 = "-" the complement is
    taken within the conditioned weight.  t_A and t_B may be arrays (they
    broadcast); scalars give a float.
    """
    _require_resonance(config.jc)
    _check_outcome(s1, "s1")
    _check_outcome(s2, "s2")
    t_a_arr, t_b_arr = np.broadcast_arrays(_times(t_a), _times(t_b))
    if not np.all(t_a_arr <= t_b_arr):
        raise ValueError("need 0 <= t_A <= t_B < inf")
    probs, run = _passages(config)
    out = np.array([_joint(run(probs, ta), run, tb - ta, s1, s2)
                    for ta, tb in zip(t_a_arr, t_b_arr)])
    if np.ndim(t_a) == 0 and np.ndim(t_b) == 0:
        return float(out[0])
    return out


def revival_curves(config, t):
    """(P_+(t), P_++(t, 2t)) from one first passage per time.

    Equal to (p_excited(config, t), p_joint(config, t, 2t, "+", "+")), the
    two curves of a revival figure, with the first atom's passage shared and
    the second atom's passage, over 2t - t = t, run with the same operator.
    Scalar t gives two floats, an array of times two arrays.
    """
    _require_resonance(config.jc)
    probs, run = _passages(config)
    times = _times(t)
    out = np.empty((2, times.size))
    for i, ti in enumerate(times):
        passage = run(probs, ti)
        out[:, i] = passage.p_plus(), _joint(passage, run, ti, "+", "+")
    if np.ndim(t) == 0:
        return float(out[0, 0]), float(out[1, 0])
    return out[0], out[1]


def eta_correlation(config, t):
    """Two-atom correlation eta(t) = P_{++}/P_+ - P_{-+}/P_-.

    Uses equal passage delays, t = t_A = t_B - t_A.  The conditional is
    undefined when either marginal is below ETA_EPSILON: a scalar t then
    gives None, an array of times NaN at those entries.
    """
    _require_resonance(config.jc)
    probs, run = _passages(config)
    times = _times(t)
    out = np.full(times.size, np.nan)
    for i, ti in enumerate(times):
        passage = run(probs, ti)
        p_plus = float(passage.p_plus())
        p_minus = 1.0 - p_plus
        if p_plus < ETA_EPSILON or p_minus < ETA_EPSILON:
            continue
        ppp = _joint(passage, run, ti, "+", "+")
        pmp = _joint(passage, run, ti, "-", "+")
        out[i] = ppp / p_plus - pmp / p_minus
    if np.ndim(t) == 0:
        return None if math.isnan(out[0]) else float(out[0])
    return out


def decoherence_time(config):
    """Decoherence time-scale t_cav / (nbar (1 + 2 n_b)) of the cat coherence.

    1 + 2 n_b is the thermal speed-up of the coherence between the two
    coherent branches: loss and thermal gain both scramble the branch phase.
    """
    nbar = config.mean_photons()
    if nbar <= 0:
        raise ValueError("decoherence time undefined for an empty field")
    return config.damping.t_cav / (nbar * (1.0 + 2.0 * config.damping.n_thermal))
