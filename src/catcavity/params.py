"""The parameter records of both routes: the resonant Jaynes-Cummings
coupling and the cavity damping.  They hold and check numbers, and no
formula lives here, so the oracle takes them without sharing code with the
closed form."""

from dataclasses import dataclass

from .errors import _nonnegative, _parameter


@dataclass(frozen=True)
class JCParams:
    """Coupling g (s^-1) of the atom and the resonant cavity mode."""

    g: float

    def __post_init__(self):
        _parameter(self.g, "g", 0.0)


@dataclass(frozen=True)
class DampingParams:
    """Cavity decay rate kappa (s^-1) and thermal occupation n_b."""

    kappa: float
    n_thermal: float = 0.0

    def __post_init__(self):
        _parameter(self.kappa, "kappa", 0.0)
        _nonnegative(self.n_thermal, "n_thermal", one=True)

    @property
    def t_cav(self):
        """Cavity field decay time 1/(2 kappa)."""
        return 1.0 / (2.0 * self.kappa)
