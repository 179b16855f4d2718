"""Jaynes-Cummings dressed states: parameters and ladder actions.

The dressed doublet at level n mixes the bare states |n+1, -> and |n, +>
through the mixing angle theta_n.  The annihilation operator is exposed as
coefficient lists on dressed states, the transcription of the dressed-frame
equations of motion that the oracle checks; the coefficient formulas are
only valid at resonance (theta = pi/4), where they take the form
(sqrt(n) +/- sqrt(n+1))/2 and the squared coefficients reduce to
Gamma_{+/-, n} = (sqrt(n+1) +/- sqrt(n))^2 / 4.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import UnsupportedRegimeError

#: Branch label of the ground sector |0, -> used in ladder terms.
GROUND = "ground"


@dataclass(frozen=True)
class JCParams:
    """Coupling g and detuning (omega_0 - omega), both s^-1."""

    g: float
    detuning: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.g) and math.isfinite(self.detuning)):
            raise ValueError("g and detuning must be finite")
        if self.g <= 0:
            raise ValueError("coupling g must be positive")


@dataclass(frozen=True)
class DressedFrame:
    """JC parameters and Fock truncation of a dressed-frame calculation."""

    params: JCParams
    truncation: int


class LadderTerm(NamedTuple):
    """One component of a ladder-operator action on a dressed state."""

    coefficient: float
    branch: str  # "+", "-" or GROUND
    level: int


def build_dressed_frame(params, truncation):
    """Dressed frame of `params` for doublets n = 0..truncation."""
    if truncation < 1:
        raise ValueError("truncation must be at least 1")
    return DressedFrame(params=params, truncation=truncation)


def _require_resonance(jc):
    """The one resonance guard of the dressed-state formulas."""
    if jc.detuning != 0.0:
        raise UnsupportedRegimeError(
            "the dressed-state formulas are defined at resonance only; "
            "use the master-equation oracle for detuned runs"
        )


def _branch_sign(branch):
    if branch == "+":
        return 1.0
    if branch == "-":
        return -1.0
    raise ValueError(f"branch must be '+' or '-', got {branch!r}")


def apply_annihilation_dressed(frame, branch, n):
    """Expansion of a |psi_n^branch> over the level-(n-1) doublet.

    Level 0 maps into the ground sector: a |psi_0^+-> = (+-1/sqrt(2)) |0,->,
    and a annihilates the ground sector itself.
    """
    _require_resonance(frame.params)
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
