"""Atom-detection probabilities, two-atom joints, correlation and decoherence time.

All operations here use the analytic dressed-frame solution; they require
resonance.  Two-atom joint probabilities propagate the unnormalized
conditioned field distribution through the elapsed time t_B - t_A, so
P(s1, s2) summed over s2 recovers the single-atom probability P(s1)
exactly (the formulas are a joint-probability decomposition).
"""

import math
import warnings
from dataclasses import dataclass
from typing import Union

import numpy as np

from .damping import (
    DampingParams,
    f_star,
    f_star_ground,
    rate_arrays,
)
from .dressed import JCParams
from .errors import ConsistencyError, UnsupportedRegimeError, ValidityWarning
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
                stacklevel=2,
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
class ConditionedField:
    """Unnormalized field distribution after detecting one atom.

    `weight` is the sum of the entries and equals the probability of the
    conditioning outcome.
    """

    dist: np.ndarray
    weight: float
    condition: str

    def __post_init__(self):
        arr = np.asarray(self.dist, dtype=float)
        arr.flags.writeable = False
        object.__setattr__(self, "dist", arr)


def _require_resonance(config):
    if config.jc.detuning != 0.0:
        raise UnsupportedRegimeError(
            "the analytic path is defined at resonance only; "
            "use the lindblad oracle for detuned runs"
        )


def _oscillation(probs, damping, g, t):
    """Per-level oscillatory amplitudes e^{-alpha_n t} cos(2 g t sqrt(n+1)) p_n."""
    n = np.arange(probs.size)
    alpha, _, _ = rate_arrays(damping, probs.size - 1)
    return np.exp(-alpha * t) * np.cos(2.0 * g * t * np.sqrt(n + 1.0)) * probs


def p_excited(config, t):
    """Probability P_+(t) of finding the probe atom still excited at time t.

    Accepts a scalar or an array of times.
    """
    _require_resonance(config)
    probs = config.distribution().probs
    times = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all((times >= 0) & (times < math.inf)):
        raise ValueError("time must be finite and non-negative")
    out = np.empty(times.size)
    for i, ti in enumerate(times):
        fg = f_star_ground(probs, config.damping, ti)
        osc = _oscillation(probs, config.damping, config.jc.g, ti).sum()
        out[i] = 0.5 - 0.25 * fg + 0.5 * osc
    if np.ndim(t) == 0:
        return float(out[0])
    return out


def conditioned_field(config, t_a, outcome):
    """Unnormalized field distribution after detecting the atom as `outcome`.

    The "+" branch is (1/2)[F*_n + e^{-alpha_n t} cos(2 g t sqrt(n+1)) p_n];
    the "-" branch is the complementary dressed-frame combination with the
    oscillatory sign flipped and the level index shifted by one, with the
    vacuum entry fed by the ground sector F*_{-1}.
    """
    _require_resonance(config)
    if not 0.0 <= t_a < math.inf:
        raise ValueError("time must be finite and non-negative")
    if outcome not in ("+", "-"):
        raise ValueError("outcome must be '+' or '-'")
    probs = config.distribution().probs
    f = f_star(probs, config.damping, t_a)
    osc = _oscillation(probs, config.damping, config.jc.g, t_a)
    if outcome == "+":
        dist = 0.5 * (f + osc)
    else:
        dist = np.empty_like(f)
        dist[0] = 0.5 * f_star_ground(probs, config.damping, t_a)
        dist[1:] = 0.5 * (f[:-1] - osc[:-1])
    if dist.min() < -1e-10:
        raise ConsistencyError(
            f"conditioned distribution entry {dist.min():.3e} below -1e-10"
        )
    dist = np.clip(dist, 0.0, None)
    return ConditionedField(dist=dist, weight=float(dist.sum()), condition=outcome)


def p_joint(config, t_a, t_b, s1, s2):
    """Joint probability of outcome s1 at t_A and s2 at t_B for two atoms.

    The second atom enters excited at t_A; the conditioned (unnormalized)
    field is propagated over t_B - t_A with the same diagonal-relaxation
    kernel plus oscillatory term as P_+.  For s2 = "-" the complement is
    taken within the conditioned weight.
    """
    _require_resonance(config)
    if not 0 <= t_a <= t_b < math.inf:
        raise ValueError("need 0 <= t_A <= t_B < inf")
    cond = conditioned_field(config, t_a, s1)
    tau = t_b - t_a
    relaxed = f_star(cond.dist, config.damping, tau)
    osc = _oscillation(cond.dist, config.damping, config.jc.g, tau)
    joint_plus = 0.5 * relaxed.sum() + 0.5 * osc.sum()
    joint_plus = min(max(joint_plus, 0.0), cond.weight)
    if s2 == "+":
        return joint_plus
    if s2 == "-":
        return cond.weight - joint_plus
    raise ValueError("s2 must be '+' or '-'")


def eta_correlation(config, t):
    """Two-atom correlation eta(t) = P_{++}/P_+ - P_{-+}/P_-.

    Uses equal passage delays, t = t_A = t_B - t_A.  Returns
    None when either marginal is below ETA_EPSILON (conditional undefined).
    """
    p_plus = p_excited(config, t)
    p_minus = 1.0 - p_plus
    if p_plus < ETA_EPSILON or p_minus < ETA_EPSILON:
        return None
    ppp = p_joint(config, t, 2.0 * t, "+", "+")
    pmp = p_joint(config, t, 2.0 * t, "-", "+")
    return ppp / p_plus - pmp / p_minus


def decoherence_time(config):
    """Decoherence time-scale t_cav / (nbar (1 + n_b)) of the cat coherence."""
    nbar = config.mean_photons()
    if nbar <= 0:
        raise ValueError("decoherence time undefined for an empty field")
    return config.damping.t_cav / (nbar * (1.0 + config.damping.n_thermal))
