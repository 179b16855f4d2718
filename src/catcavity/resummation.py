"""Poisson-resummed closed form of P_+(t) for large mean photon number.

The sum over Fock levels is traded for a small number of revival waves
w_nu(t): integer nu terms carry the coherent-state revivals, half-odd nu
terms carry the cat interference and enter weighted by -cos(phi).  The
nu = 0 wave (initial collapse) has its own formula and is not a limit of
the generic one.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .damping import DampingParams, doublet_decay_rate
from .errors import ValidityWarning
from .states import _log_poisson


@dataclass(frozen=True)
class ResumParams:
    """Inputs of the resummed P_+: mean photons, cat phase, order, damping."""

    nbar: float
    phase: float
    max_order: int
    damping: DampingParams
    g: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.nbar, self.phase, self.g))):
            raise ValueError("nbar, phase and g must be finite")
        if self.nbar <= 0:
            raise ValueError("nbar must be positive")
        if self.max_order < 1:
            raise ValueError("max_order must be at least 1")
        if self.g <= 0:
            raise ValueError("coupling g must be positive")
        if self.nbar < 10:
            warnings.warn(
                "Poisson resummation is an nbar >> 1 asymptotic; "
                f"nbar = {self.nbar} is small",
                ValidityWarning,
                stacklevel=3,  # the caller of the generated __init__
            )


def fractional_poisson(nbar, x):
    """Poisson weight nbar^x e^{-nbar} / Gamma(x+1) at real argument x >= 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("argument must be non-negative")
    out = np.exp(_log_poisson(nbar, x))
    return float(out) if out.ndim == 0 else out


def collapse_wave(params, t):
    """nu = 0 wave: the initial collapse e^{-g^2 t^2 / 2} cos(2 g t sqrt(nbar))."""
    gt = params.g * np.asarray(t, dtype=float)
    return np.exp(-gt * gt / 2.0) * np.cos(2.0 * gt * math.sqrt(params.nbar))


def revival_wave(params, nu, t):
    """Revival wave w_nu(t) for nu > 0 (integer or half-odd).

    The Poisson envelope peaks where g^2 t^2 / (4 pi^2 nu^2) = nbar, i.e. at
    gt = 2 pi nu sqrt(nbar).
    """
    if nu <= 0:
        raise ValueError("nu must be positive; the nu = 0 wave is collapse_wave")
    gt = params.g * np.asarray(t, dtype=float)
    argument = gt * gt / (4.0 * math.pi**2 * nu**2)
    envelope = fractional_poisson(params.nbar, argument) * gt / (
        math.pi * math.sqrt(2.0 * nu**3)
    )
    return envelope * np.cos(gt * gt / (2.0 * math.pi * nu) - math.pi / 4.0)


def resummed_p_excited(params, t):
    """Resummed P_+(t) with damping kept at leading order.

    Depends on the cat phase only through cos(phase).  Warns when the
    validity condition alpha_nbar << g is violated.
    """
    t = np.asarray(t, dtype=float)
    if not np.all((t >= 0) & (t < math.inf)):
        raise ValueError("time must be finite and non-negative")
    alpha_nbar = doublet_decay_rate(params.damping, params.nbar)
    if alpha_nbar > 0.1 * params.g:
        warnings.warn(
            f"alpha_nbar/g = {alpha_nbar / params.g:.3g}; the leading-order "
            "damping treatment of the resummation is unreliable",
            ValidityWarning,
            stacklevel=2,
        )
    cos_phi = math.cos(params.phase)
    waves = collapse_wave(params, t)
    for nu in range(1, params.max_order + 1):
        waves = waves + revival_wave(params, nu, t)
        waves = waves - cos_phi * revival_wave(params, nu - 0.5, t)
    ground = 0.5 * np.exp(-2.0 * params.damping.kappa
                          * params.damping.n_thermal * t)
    out = ground + 0.5 * np.exp(-alpha_nbar * t) * waves
    return float(out) if out.ndim == 0 else out
