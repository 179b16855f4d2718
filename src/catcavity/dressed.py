"""Jaynes-Cummings eigensystem: dressed states, energies, ladder actions.

The dressed doublet at level n mixes the bare states |n+1, -> and |n, +>
through the mixing angle theta_n.  Ladder-operator actions are exposed as
coefficient lists on dressed states so that the analytic solver and the
brute-force oracle share one implementation; the coefficient formulas are
only valid at resonance (theta = pi/4), where they take the form
(sqrt(n+1) +/- sqrt(n+2))/2 and the squared coefficients reduce to
Gamma_{+/-, n} = (sqrt(n+1) +/- sqrt(n))^2 / 4.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import UnsupportedRegimeError

#: Branch label of the ground sector |0, -> used in ladder terms.
GROUND = "ground"


@dataclass(frozen=True)
class JCParams:
    """Coupling g, detuning (omega_0 - omega) and cavity frequency, all s^-1."""

    g: float
    detuning: float = 0.0
    omega: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.g, self.detuning, self.omega))):
            raise ValueError("g, detuning and omega must be finite")
        if self.g <= 0:
            raise ValueError("coupling g must be positive")


@dataclass(frozen=True)
class DressedFrame:
    """Eigensystem data of the JC doublets for n = 0..truncation."""

    params: JCParams
    truncation: int
    mixing_angles: np.ndarray
    energies_plus: np.ndarray
    energies_minus: np.ndarray
    gap: np.ndarray
    gamma_plus: np.ndarray
    gamma_minus: np.ndarray
    ground_energy: float

    def __post_init__(self):
        for name in ("mixing_angles", "energies_plus", "energies_minus",
                     "gap", "gamma_plus", "gamma_minus"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def resonant(self):
        return self.params.detuning == 0.0


class LadderTerm(NamedTuple):
    """One component of a ladder-operator action on a dressed state."""

    coefficient: float
    branch: str  # "+", "-" or GROUND
    level: int


def build_dressed_frame(params, truncation):
    """Dressed energies, mixing angles and Gamma coefficients up to `truncation`."""
    if truncation < 1:
        raise ValueError("truncation must be at least 1")
    n = np.arange(truncation + 1)
    g, dw, omega = params.g, params.detuning, params.omega
    rabi_half = np.sqrt(dw * dw / 4.0 + g * g * (n + 1.0))
    theta = np.arctan2(2.0 * g * np.sqrt(n + 1.0),
                       dw + np.sqrt(dw * dw + 4.0 * g * g * (n + 1.0)))
    e_plus = omega * (n + 0.5) + rabi_half
    e_minus = omega * (n + 0.5) - rabi_half
    gap = np.sqrt(dw * dw + 4.0 * g * g * (n + 1.0))
    gamma_plus = (np.sqrt(n + 1.0) + np.sqrt(n)) ** 2 / 4.0
    gamma_minus = (np.sqrt(n + 1.0) - np.sqrt(n)) ** 2 / 4.0
    return DressedFrame(
        params=params,
        truncation=truncation,
        mixing_angles=theta,
        energies_plus=e_plus,
        energies_minus=e_minus,
        gap=gap,
        gamma_plus=gamma_plus,
        gamma_minus=gamma_minus,
        ground_energy=-(omega + dw) / 2.0,
    )


def _require_resonance(frame):
    if not frame.resonant:
        raise UnsupportedRegimeError(
            "dressed ladder coefficients are only defined at resonance"
        )


def _branch_sign(branch):
    if branch == "+":
        return 1.0
    if branch == "-":
        return -1.0
    raise ValueError(f"branch must be '+' or '-', got {branch!r}")


def apply_creation_dressed(frame, branch, n):
    """Expansion of a* |psi_n^branch> over the level-(n+1) doublet.

    From the ground sector, a* |0,-> = (|psi_0^+> - |psi_0^->) / sqrt(2).
    """
    _require_resonance(frame)
    if branch == GROUND:
        r = 1.0 / math.sqrt(2.0)
        return [LadderTerm(r, "+", 0), LadderTerm(-r, "-", 0)]
    if n < 0:
        raise ValueError("level must be non-negative")
    s = _branch_sign(branch)
    lo, hi = math.sqrt(n + 1.0), math.sqrt(n + 2.0)
    return [
        LadderTerm(0.5 * (lo + s * hi), "+", n + 1),
        LadderTerm(0.5 * (lo - s * hi), "-", n + 1),
    ]


def apply_annihilation_dressed(frame, branch, n):
    """Expansion of a |psi_n^branch> over the level-(n-1) doublet.

    Level 0 maps into the ground sector: a |psi_0^+-> = (+-1/sqrt(2)) |0,->,
    and a annihilates the ground sector itself.
    """
    _require_resonance(frame)
    if branch == GROUND:
        return []
    if n < 0:
        raise ValueError("level must be non-negative")
    s = _branch_sign(branch)
    if n == 0:
        return [LadderTerm(s / math.sqrt(2.0), GROUND, -1)]
    lo, hi = math.sqrt(n), math.sqrt(n + 1.0)
    return [
        LadderTerm(0.5 * (lo + s * hi), "+", n - 1),
        LadderTerm(0.5 * (lo - s * hi), "-", n - 1),
    ]
