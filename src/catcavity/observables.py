"""Atom-detection probabilities, two-atom joints, correlation and decoherence time.

All operations here use the analytic dressed-frame solution of the
resonant model.  Two-atom joint probabilities propagate the unnormalized
conditioned field distribution through the elapsed time t_B - t_A, so
P(s1, s2) summed over s2 recovers the single-atom probability P(s1)
exactly (the formulas are a joint-probability decomposition).  Every
observable is an array expression on the one table that `_table` returns:
one pipeline over chunks of times that builds each chunk's F* kernels once
and applies them to every config and conditioned outcome, so that a call
pays one pipeline set-up beyond its kernel work.
"""

import warnings
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Union

import numpy as np

from .damping import (_f_star_apply, _f_star_chunks, _unitarity_ground,
                      _warn_high_thermal, doublet_decay_rate)
from .errors import (ConsistencyError, ValidityWarning, _check_outcome,
                     _count, _instance, _times)
from .params import DampingParams, JCParams
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
        _instance(self.jc, "jc", JCParams)
        _instance(self.damping, "damping", DampingParams)
        _instance(self.initial_field, "initial_field", CatSpec,
                  PhotonDistribution)
        _count(self.truncation, "truncation", 0)
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
        _warn_high_thermal(self.damping, 3)

    def distribution(self):
        """Initial photon distribution at the configured truncation."""
        return self._distribution

    def mean_photons(self):
        if isinstance(self.initial_field, PhotonDistribution):
            return self.initial_field.mean()
        return cat_mean_photons(self.initial_field)


def _conditioned(f, osc, ground, outcomes):
    """Unnormalized field distributions after detecting each of `outcomes`,
    from the (C, F, N) stacks F*_n = f and the oscillation term osc and the
    (C, F) F*_{-1} = ground: one (C, F, N) block per outcome, in order, of
    a (C, len(outcomes) F, N) stack."""
    rows = f.shape[1]
    dist = np.empty((f.shape[0], len(outcomes) * rows, f.shape[2]))
    for i, outcome in enumerate(outcomes):
        block = dist[:, i * rows:(i + 1) * rows]
        if outcome == "+":
            np.add(f, osc, out=block)
        else:
            block[..., 0] = ground
            np.subtract(f[..., :-1], osc[..., :-1], out=block[..., 1:])
    dist *= 0.5
    low = dist.min()
    if low < -1e-10:
        raise ConsistencyError(
            f"conditioned distribution entry {low:.3e} below -1e-10")
    return np.maximum(dist, 0.0, out=dist)


def _passages(configs):
    """(count, jc, damping, [(rows, probs)]) for one config or a sequence
    of configs that share jc and damping, grouped by truncation: each group
    is the (F, N) stack `probs` of the rows `rows` of the sequence, a slice
    of all of them when there is one group.  A field is never re-truncated.
    """
    if isinstance(configs, ExperimentConfig):
        return (1, configs.jc, configs.damping,
                [(slice(None), configs.distribution().probs[None])])
    configs = [_instance(config, "configs", ExperimentConfig) for config
               in _instance(configs, "configs", ExperimentConfig, Iterable)]
    if not configs:
        raise ValueError("need at least one config")
    jc, damping = configs[0].jc, configs[0].damping
    if any(c.jc != jc or c.damping != damping for c in configs):
        raise ValueError("configs in one call must share jc and damping")
    groups = {}
    for row, config in enumerate(configs):
        groups.setdefault(config.truncation, []).append(row)
    return len(configs), jc, damping, [
        (np.array(rows) if len(groups) > 1 else slice(None),
         np.array([configs[r].distribution().probs for r in rows]))
        for rows in groups.values()]


def _oscillation(jc, damping, size):
    """The function from a 1-d array of times to the (C, 1, size) stack of
    oscillation factors e^{-alpha_n t} cos(2 g t sqrt(n+1)) at them, with
    alpha_n and sqrt(n+1) computed once, here."""
    n = np.arange(size)
    rate, root = -doublet_decay_rate(damping, n), np.sqrt(n + 1.0)

    def factor(times):
        t = times[:, None, None]
        return np.exp(rate * t) * np.cos(2.0 * jc.g * t * root)
    return factor


def _table(configs, t_a, tau, outcomes=""):
    """(P_+, weights, joints): P_+ a (configs, times) array, and weights and
    joints (outcomes, configs, times) arrays whose i-th entry belongs to
    the first outcome s1 = outcomes[i]; the one loop over times of every
    observable.  t_a and tau are checked times, a scalar counting as one.

    P_+ is that of the first atom's passage over t_a[i].  For each first
    outcome s1, weight is sum_n M_s1 p, the probability of s1, and joint
    the weight of (s1, +): the conditioned field after the second atom's
    passage over the delay tau[i], clipped to [0, weight].

    Each truncation group runs one pipeline: `_f_star_chunks` yields a
    chunk of times with its kernels, the group's `_oscillation` gives their
    factors, and the chunk's results are written by slice into time-major
    arrays, returned transposed.  The second passage reuses the first's
    kernels and factors when every delay equals its t_a, and runs its own
    `_f_star_chunks` over tau only if some outcome is asked for.
    """
    shared = not outcomes or tau is t_a or np.array_equal(tau, t_a)
    t_a, tau = t_a.reshape(-1), tau.reshape(-1)
    count, jc, damping, stacks = _passages(configs)
    p_plus = np.empty((t_a.size, count))
    weights = np.empty((t_a.size, len(outcomes), count))
    joints = np.empty_like(weights)
    for rows, probs in stacks:
        size = probs.shape[1]
        oscillation = _oscillation(jc, damping, size)
        seconds = None if shared else _f_star_chunks(size, damping, tau)
        for chunk, kernels, decay in _f_star_chunks(size, damping, t_a):
            factor = oscillation(t_a[chunk])
            f = _f_star_apply(kernels, decay, probs)
            osc = factor * probs
            ground = _unitarity_ground(probs, f)
            p_plus[chunk, rows] = 0.5 - 0.25 * ground + 0.5 * osc.sum(axis=2)
            if not outcomes:
                continue
            if not shared:
                _, kernels, decay = next(seconds)
                factor = oscillation(tau[chunk])
            cond = _conditioned(f, osc, ground, outcomes)
            weight = cond.sum(axis=2)
            value = (0.5 * _f_star_apply(kernels, decay, cond).sum(axis=2)
                     + 0.5 * (factor * cond).sum(axis=2))
            joint = np.minimum(np.maximum(value, 0.0), weight)
            shape = (len(joint), len(outcomes), -1)
            weights[chunk, :, rows] = weight.reshape(shape)
            joints[chunk, :, rows] = joint.reshape(shape)
    return p_plus.T, weights.transpose(1, 2, 0), joints.transpose(1, 2, 0)


def _shaped(out, configs, scalar):
    """A (configs, times) result in the caller's shape: one config drops
    the first axis, a scalar time the second, and both give a float."""
    if isinstance(configs, ExperimentConfig):
        out = out[0]
    if scalar:
        out = out[..., 0]
    return float(out) if out.ndim == 0 else out


def p_excited(configs, t):
    """Probability P_+(t) of finding the probe atom still excited at time t.

    Accepts a scalar or an array of times.  A sequence of configs that share
    jc and damping gives one row per config.
    """
    times = _times(t)
    return _shaped(_table(configs, times, times)[0], configs, times.ndim == 0)


def conditioned_field(config, t_a, outcome):
    """Unnormalized field distribution after detecting the atom as `outcome`,
    an array over n = 0..truncation whose sum is the outcome's probability.

    The "+" branch is (1/2)[F*_n + e^{-alpha_n t} cos(2 g t sqrt(n+1)) p_n];
    the "-" branch is the complementary dressed-frame combination with the
    oscillatory sign flipped and the level index shifted by one, with the
    vacuum entry fed by the ground sector F*_{-1}.  t_a is one time.
    """
    _instance(config, "config", ExperimentConfig)
    _check_outcome(outcome)
    times = _times(t_a, one=True).reshape(1)
    probs = config.distribution().probs[None]
    size = probs.shape[1]
    [(_, kernels, decay)] = _f_star_chunks(size, config.damping, times)
    f = _f_star_apply(kernels, decay, probs)
    osc = _oscillation(config.jc, config.damping, size)(times) * probs
    return _conditioned(f, osc, _unitarity_ground(probs, f), outcome)[0, 0]


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
        raise ValueError("need t_A <= t_B")
    _, [weight], [joint] = _table(configs, t_a_arr, t_b_arr - t_a_arr, s1)
    return _shaped(joint if s2 == "+" else weight - joint, configs,
                   t_a_arr.ndim == 0)


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
    p_plus, _, [joint] = _table(configs, times, times, "+")
    scalar = times.ndim == 0
    return _shaped(p_plus, configs, scalar), _shaped(joint, configs, scalar)


def eta_correlation(configs, t):
    """Two-atom correlation eta(t) = P_{++}/P_+ - P_{-+}/P_-.

    Uses equal passage delays, t = t_A = t_B - t_A.  The conditional is
    undefined when either marginal is below ETA_EPSILON: a scalar t then
    gives None, an array of times NaN at those entries.  A sequence of
    configs that share jc and damping gives one row per config (NaN where
    undefined), and each time's operator is built once for all of them.
    """
    times = _times(t)
    p_plus, _, (plus, minus) = _table(configs, times, times, "+-")
    if times.ndim == 0 and isinstance(configs, ExperimentConfig):
        # the same two divisions and subtraction, on floats
        p = p_plus.item()
        q = 1.0 - p
        if p >= ETA_EPSILON and q >= ETA_EPSILON:
            return plus.item() / p - minus.item() / q
        return None
    p_minus = 1.0 - p_plus
    defined = (p_plus >= ETA_EPSILON) & (p_minus >= ETA_EPSILON)
    eta = np.full_like(p_plus, np.nan)
    np.divide(plus, p_plus, out=eta, where=defined)
    eta -= np.divide(minus, p_minus, out=np.zeros_like(p_plus),
                     where=defined)
    return _shaped(eta, configs, times.ndim == 0)


def decoherence_time(config):
    """Decoherence time-scale t_cav / (nbar (1 + 2 n_b)) of the cat coherence.

    At n_b = 0 it is 1/(2 kappa nbar), the time by which the cavity has lost
    one photon on average (2 kappa nbar t = 1): the usual statement that one
    leaked photon carries away the which-branch information.  The branch
    coherence |<z e^{-kappa t}| rho_C |-z e^{-kappa t}>| decays as
    exp(-2 nbar (1 - e^{-2 kappa t})), whose exponent is 4 kappa nbar t at
    short times, so this is twice its 1/e time (the oracle's 1/e time over
    this value tends to 1/2 as nbar grows: 0.537 at nbar = 4, 0.503 at 49).
    The value keeps the one-photon convention rather than the 1/e time.
    1 + 2 n_b is the thermal speed-up of the coherence between the two
    coherent branches: loss and thermal gain both scramble the branch phase.
    """
    nbar = _instance(config, "config", ExperimentConfig).mean_photons()
    if nbar <= 0:
        raise ValueError("decoherence time undefined for an empty field")
    return config.damping.t_cav / (nbar * (1.0 + 2.0 * config.damping.n_thermal))
