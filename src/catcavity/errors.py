"""Exception and warning types shared across the package."""


class CatCavityError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateCatError(CatCavityError):
    """The cat-state normalization vanishes (e.g. |0> - |0>)."""


class TruncationError(CatCavityError):
    """The Fock cutoff is too small to hold the requested photon mass."""


class UnsupportedRegimeError(CatCavityError):
    """An operation was requested outside the regime it is defined in."""


class ConsistencyError(CatCavityError):
    """An internal quantity violated a bound that should hold by construction."""


class ConfigurationError(CatCavityError):
    """A run configuration is incomplete or contradictory."""


class ValidityWarning(UserWarning):
    """Parameters are outside the regime where the analytic solution is argued
    to be accurate; results are still computed."""
