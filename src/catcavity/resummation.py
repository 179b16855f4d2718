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

from .damping import _warn_high_thermal, doublet_decay_rate
from .errors import ValidityWarning, _count, _instance, _parameter, _times
from .params import DampingParams
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
        _parameter(self.nbar, "nbar", 0.0)
        _parameter(self.phase, "phase")
        _count(self.max_order, "max_order", 1)
        _instance(self.damping, "damping", DampingParams)
        _parameter(self.g, "g", 0.0)
        if self.nbar < 10:
            warnings.warn(
                "Poisson resummation is an nbar >> 1 asymptotic; "
                f"nbar = {self.nbar} is small",
                ValidityWarning,
                stacklevel=3,  # the caller of the generated __init__
            )
        _warn_high_thermal(self.damping, 3)


def _collapse(params, gt):
    """nu = 0 wave at the checked products gt = g t: the initial collapse
    e^{-(gt)^2 / 2} cos(2 gt sqrt(nbar))."""
    return np.exp(-gt * gt / 2.0) * np.cos(2.0 * gt * math.sqrt(params.nbar))


def _revival(params, nu, gt):
    """Revival wave w_nu, nu > 0 integer or half-odd, at the checked gt = g t;
    an array of nu broadcast against gt gives one wave per entry.  Its
    Poisson envelope peaks where (gt)^2 / (4 pi^2 nu^2) = nbar, i.e. at
    gt = 2 pi nu sqrt(nbar)."""
    argument = gt * gt / (4.0 * math.pi**2 * nu**2)
    envelope = np.exp(_log_poisson(params.nbar, argument)) * gt / (
        math.pi * np.sqrt(2.0 * nu**3)
    )
    return envelope * np.cos(gt * gt / (2.0 * math.pi * nu) - math.pi / 4.0)


def resummed_p_excited(params, t):
    """Resummed P_+(t) with damping kept at leading order.

    Depends on the cat phase only through cos(phase).  Warns when the
    validity condition alpha_nbar << g is violated.  The revival waves
    are one (waves, times) array, added to the collapse wave in the order
    + w_nu - cos(phase) w_{nu - 1/2} for nu = 1, 2, ...
    """
    _instance(params, "params", ResumParams)
    t = _times(t)
    alpha_nbar = doublet_decay_rate(params.damping, params.nbar)
    if alpha_nbar > 0.1 * params.g:
        warnings.warn(
            f"alpha_nbar/g = {alpha_nbar / params.g:.3g}; the leading-order "
            "damping treatment of the resummation is unreliable",
            ValidityWarning,
            stacklevel=2,
        )
    gt = params.g * t
    # nu = 1/2, 1, 3/2, ..., max_order down the first axis
    nu = np.arange(1, 2 * params.max_order + 1) / 2.0
    revivals = _revival(params, nu.reshape(nu.shape + (1,) * gt.ndim), gt)
    halves = math.cos(params.phase) * revivals[0::2]
    waves = _collapse(params, gt)
    for whole, half in zip(revivals[1::2], halves):
        waves = waves + whole
        waves = waves - half
    ground = 0.5 * np.exp(-2.0 * params.damping.kappa
                          * params.damping.n_thermal * t)
    out = ground + 0.5 * np.exp(-alpha_nbar * t) * waves
    return float(out) if out.ndim == 0 else out
