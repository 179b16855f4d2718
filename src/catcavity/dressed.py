"""Jaynes-Cummings parameters and the resonant dressed frame.

The dressed doublet at level n mixes the bare states |n+1, -> and |n, +>
through the mixing angle theta_n.  At resonance (theta = pi/4) the dressed
states are psi_n^{+/-} = (|n, +> +/- |n+1, ->) / sqrt(2), fixed by the
coupling g alone, so the dressed frame is written once here as two arrays:
the basis `dressed_basis` and the annihilation operator
`dressed_annihilation` in it.  The latter is built from the resonant ladder
relations (Barnett & Knight, PRA 33, 2444, 1986), not by rotating the bare
operator, so the oracle's equation-of-motion check against it stays
independent; its squared coefficients reduce to
Gamma_{+/-, n} = (sqrt(n+1) +/- sqrt(n))^2 / 4.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import _count, _parameter, _require_resonance


@dataclass(frozen=True)
class JCParams:
    """Coupling g and detuning (omega_0 - omega), both s^-1."""

    g: float
    detuning: float = 0.0

    def __post_init__(self):
        _parameter(self.g, "g", 0.0)
        _parameter(self.detuning, "detuning")


# kept only as the entry point benchmarks/workloads.py calls; ROADMAP item 2
# deletes it with the benchmark's next change
def build_dressed_frame(jc, truncation):
    """`jc`, the whole dressed frame at resonance; checks the truncation."""
    _count(truncation, "truncation", 1)
    return jc


def dressed_basis(truncation):
    """(U, rabi): the resonant dressed states as the columns of U over the
    bare basis |n, s> (row 2 n for s = +, 2 n + 1 for s = -).

    Column order: 0 is the ground state |0, ->; columns 1 + 2 n and 2 + 2 n
    are psi_n^+ and psi_n^- for n = 0..N-1; the last column, 2 N + 1, is the
    unpaired truncation-edge state |N, +>.  `rabi` holds the
    interaction-picture eigenvalue of each column in units of g: 0, then
    +sqrt(n+1) and -sqrt(n+1), then 0.
    """
    dim = 2 * (_count(truncation, "truncation", 0) + 1)
    n = np.arange(truncation)
    plus, minus = 1 + 2 * n, 2 + 2 * n
    r = 1.0 / math.sqrt(2.0)
    u = np.zeros((dim, dim))
    u[1, 0] = 1.0                          # |0, ->
    u[2 * n, plus] = u[2 * n, minus] = r   # |n, +>
    u[2 * n + 3, plus] = r                 # |n+1, ->
    u[2 * n + 3, minus] = -r
    u[2 * truncation, dim - 1] = 1.0       # |N, +>
    rabi = np.zeros(dim)
    rabi[plus] = np.sqrt(n + 1.0)
    rabi[minus] = -rabi[plus]
    return u, rabi


def dressed_annihilation(jc, truncation):
    """Matrix of a in the column order of `dressed_basis`, from the resonant
    ladder relations

        a |psi_n^s> = (1/2)(sqrt(n) + s sqrt(n+1)) |psi_{n-1}^+>
                      + (1/2)(sqrt(n) - s sqrt(n+1)) |psi_{n-1}^->,
        a |psi_0^s> = (s / sqrt(2)) |0, ->,
        a |N, +>    = sqrt(N / 2) (|psi_{N-1}^+> + |psi_{N-1}^->),

    and a |0, -> = 0.
    """
    _require_resonance(jc)
    dim = 2 * (_count(truncation, "truncation", 1) + 1)
    a_d = np.zeros((dim, dim))
    r = 1.0 / math.sqrt(2.0)
    a_d[0, 1], a_d[0, 2] = r, -r
    n = np.arange(1, truncation)
    lo, hi = np.sqrt(n), np.sqrt(n + 1.0)
    plus, minus = 1 + 2 * n, 2 + 2 * n
    a_d[plus - 2, plus] = a_d[minus - 2, minus] = 0.5 * (lo + hi)
    a_d[minus - 2, plus] = a_d[plus - 2, minus] = 0.5 * (lo - hi)
    a_d[dim - 3:dim - 1, dim - 1] = math.sqrt(truncation / 2.0)
    return a_d
