"""Photon-number statistics of coherent and Schroedinger-cat field states.

A cat state is the normalized superposition (|z> + e^{i phi} |-z>) of two
coherent states.  Every downstream quantity depends only on the intensity
|z|^2 and the superposition phase phi, so the complex phase of z is never
stored.  All factorial ratios are evaluated through log-gamma so that
intensities of order 50 (Fock components out to n ~ 120) stay in range.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import (DegenerateCatError, TruncationError, _count,
                     _instance, _nonnegative, _parameter, _probabilities)

_TWO_PI = 2.0 * math.pi

#: Largest admissible probability-mass loss to the truncated upper tail.
MASS_TOLERANCE = 1e-10

#: Largest admissible excess of the total probability over one (round-off).
_SUM_SLACK = 1e-12

#: Cat normalizations at or below this are refused (see CatSpec.refuse_degenerate).
_DEGENERATE_NORM = 4.0 * np.finfo(float).eps / _SUM_SLACK


def default_truncation(nbar):
    """Fock cutoff keeping at least 1 - 1e-10 of the photon mass at mean nbar."""
    _nonnegative(nbar, "nbar", one=True)
    return max(32, int(math.ceil(nbar + 10.0 * math.sqrt(nbar + 1.0))))


@dataclass(frozen=True)
class CatSpec:
    """Parameters of a Schroedinger-cat field state.

    intensity is |z|^2 (the mean-photon scale of each branch), phase is the
    superposition phase phi in radians, stored reduced to [0, 2*pi).
    """

    intensity: float
    phase: float = 0.0

    def __post_init__(self):
        _nonnegative(self.intensity, "intensity", one=True)
        _parameter(self.phase, "phase")
        object.__setattr__(self, "phase", float(self.phase) % _TWO_PI)

    @property
    def normalization(self):
        """Squared norm 2 + 2 cos(phi) exp(-2|z|^2) of the unnormalized cat."""
        return 2.0 + 2.0 * math.cos(self.phase) * math.exp(-2.0 * self.intensity)

    def refuse_degenerate(self):
        """Raise DegenerateCatError where rounding alone could break the
        cat's unit total.

        Near phi = pi and small |z|^2 the normalization 2 + 2 cos(phi)
        e^{-2|z|^2} and the parity weights it divides are differences of
        O(1) terms, each off by about one machine epsilon, so every p_n and
        their sum carry a relative error of about eps / normalization (a scan
        over phi in pi +/- [0, 1e-2] and |z|^2 in [1e-13, 0.1] measured at
        most 1.06 eps / normalization).  PhotonDistribution lets the sum
        exceed one by 1e-12 at most, so a normalization below
        eps / 1e-12 = 2.2e-4 can fail by rounding; the threshold keeps a
        factor of four, 4 eps / 1e-12 = 8.9e-4.
        """
        if self.normalization <= _DEGENERATE_NORM:
            raise DegenerateCatError(
                f"the cat at intensity {self.intensity:g} and phase "
                f"{self.phase:g} is degenerate: its normalization 2 + 2 "
                "cos(phi) exp(-2 |z|^2) is too close to zero")


@dataclass(frozen=True)
class PhotonDistribution:
    """Truncated photon-number distribution p_n over n = 0..truncation."""

    probs: np.ndarray

    def __post_init__(self):
        probs = _probabilities(self.probs, "probabilities")
        if probs.size and (probs.min() < 0.0 or probs.max() > 1.0):
            raise ValueError("probabilities must lie in [0, 1]")
        total = probs.sum()
        if total < 1.0 - MASS_TOLERANCE:
            raise TruncationError(
                f"retained mass {total:.15f} below 1 - {MASS_TOLERANCE:g}; "
                "increase the truncation"
            )
        if total > 1.0 + _SUM_SLACK:
            raise ValueError("probabilities sum above 1")
        probs = probs.copy()
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)

    @property
    def truncation(self):
        """Fock cutoff N: the last photon number in probs."""
        return self.probs.size - 1

    def mean(self):
        n = np.arange(self.truncation + 1)
        return float(n @ self.probs)


def _log_poisson(intensity, n):
    """log of the Poisson weight intensity^n e^{-intensity} / n! at points
    n >= 0; a real n gives the Gamma-function continuation."""
    if intensity == 0.0:
        out = np.full(n.shape, -np.inf)
        out[n == 0] = 0.0
        return out
    return n * math.log(intensity) - intensity - gammaln(n + 1.0)


def coherent_distribution(intensity, truncation):
    """Photon distribution of a coherent state: Poisson with mean |z|^2."""
    _nonnegative(intensity, "intensity", one=True)
    n = np.arange(_count(truncation, "truncation", 1) + 1)
    return PhotonDistribution(np.exp(_log_poisson(intensity, n)))


def cat_distribution(spec, truncation=None):
    """Photon distribution of the cat state |z; phi>.

    p_n is the Poisson pmf reweighted by the parity interference factor
    2 (1 + cos(phi) (-1)^n) / (2 + 2 cos(phi) exp(-2|z|^2)).  The cutoff
    defaults to `default_truncation` at the branch intensity.
    """
    _instance(spec, "spec", CatSpec)
    if truncation is None:
        truncation = default_truncation(spec.intensity)
    spec.refuse_degenerate()
    n = np.arange(_count(truncation, "truncation", 1) + 1)
    cos_phi, norm = math.cos(spec.phase), spec.normalization
    weights = np.empty(n.size)  # the parity weights of even n, then odd n
    weights[0::2] = 2.0 * (1.0 + cos_phi) / norm
    weights[1::2] = 2.0 * (1.0 - cos_phi) / norm
    probs = np.exp(_log_poisson(spec.intensity, n)) * weights
    return PhotonDistribution(probs)


def cat_mean_photons(spec):
    """Mean photon number |z|^2 (1 - c)/(1 + c) with c = cos(phi) e^{-2|z|^2}.

    For phi = 0 this reduces to |z|^2 tanh(|z|^2).
    """
    _instance(spec, "spec", CatSpec).refuse_degenerate()
    c = math.cos(spec.phase) * math.exp(-2.0 * spec.intensity)
    return spec.intensity * (1.0 - c) / (1.0 + c)

