"""Jaynes-Cummings dressed states: parameters and ladder actions.

The dressed doublet at level n mixes the bare states |n+1, -> and |n, +>
through the mixing angle theta_n.  At resonance (theta = pi/4) the dressed
frame is fixed by the coupling g alone, so every dressed-frame function
takes the JCParams `jc` and nothing else.  The annihilation operator is
exposed as coefficient lists on dressed states, the transcription of the
dressed-frame equations of motion that the oracle checks; the coefficients
(sqrt(n) +/- sqrt(n+1))/2 hold at resonance only, where their squares reduce
to Gamma_{+/-, n} = (sqrt(n+1) +/- sqrt(n))^2 / 4.
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


class LadderTerm(NamedTuple):
    """One component of a ladder-operator action on a dressed state."""

    coefficient: float
    branch: str  # "+", "-" or GROUND
    level: int


# kept only as the entry point benchmarks/workloads.py calls; ROADMAP item 4
# deletes it with the benchmark's next change
def build_dressed_frame(jc, truncation):
    """`jc` itself, the whole dressed frame at resonance, once truncation
    is checked to be at least 1."""
    if truncation < 1:
        raise ValueError("truncation must be at least 1")
    return jc


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


def apply_annihilation_dressed(jc, branch, n):
    """Expansion of a |psi_n^branch> over the level-(n-1) doublet.

    Level 0 maps into the ground sector: a |psi_0^+-> = (+-1/sqrt(2)) |0,->,
    and a annihilates the ground sector itself.
    """
    _require_resonance(jc)
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
