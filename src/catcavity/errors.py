"""Exception and warning types shared across the package, and the rules
on outside input that the public entries of both routes and the command
line call."""

import math

import numpy as np


class CatCavityError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateCatError(CatCavityError):
    """The cat-state normalization vanishes (e.g. |0> - |0>)."""


class TruncationError(CatCavityError):
    """The Fock cutoff is too small to hold the requested photon mass."""


class ConsistencyError(CatCavityError):
    """An internal quantity violated a bound that should hold by construction."""


class ConfigurationError(CatCavityError):
    """A run configuration is incomplete or contradictory."""


class ValidityWarning(UserWarning):
    """Parameters are outside the regime where the analytic solution is argued
    to be accurate; results are still computed."""


def _nonnegative(value, name, one=False):
    """`value`, numbers (not text or bools), as a float array of finite
    entries >= 0, and with `one` a single number.  A bool among the numbers
    of a list or tuple is refused too, which `np.asarray` would make 0.0 or
    1.0."""
    array = np.asarray(value)
    listed_bool = isinstance(value, (list, tuple)) and any(
        isinstance(entry, (bool, np.bool_))
        for entry in np.asarray(value, dtype=object).ravel())
    # NaN fails both comparisons, and an empty array has nothing to refuse
    if listed_bool or array.dtype.kind not in "iuf" or not (
            0.0 <= float(array) < math.inf if array.ndim == 0
            else not one and (not array.size or (
                0.0 <= array.min() and array.max() < math.inf))):
        raise ValueError(f"{name} must be finite and non-negative"
                         + (", one number" if one else ""))
    return array.astype(float, copy=False)


def _times(t, one=False):
    """`t`, a scalar or (unless `one`) a 1-d array, of finite times >= 0."""
    times = _nonnegative(t, "time")
    if times.ndim > (0 if one else 1):
        raise ValueError("expected one time" if one else
                         "times must be a scalar or a 1-d array")
    return times


def _count(value, name, low):
    """`value` if it is an int or a NumPy integer, not a bool, and >= `low`."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < low):
        raise ValueError(
            f"{name} must be {low} or a larger integer, got {value!r}")
    return value


def _probabilities(p, name):
    """`p`, numbers (not text or bools), as a 1-d float array of finite
    entries."""
    probs = np.asarray(p)
    if (probs.dtype.kind not in "iuf" or probs.ndim != 1
            or not np.isfinite(probs).all()):
        raise ValueError(f"{name} must be a 1-d array of finite values")
    return probs.astype(float, copy=False)


def _parameter(value, name, above=-math.inf):
    """`value` if it is a finite real number, not a bool, above `above`."""
    if (isinstance(value, bool)
            or not isinstance(value, (int, float, np.integer, np.floating))
            or not (math.isfinite(value) and value > above)):
        bound = f" above {above:g}" if above > -math.inf else ""
        raise ValueError(
            f"{name} must be a finite number{bound}, got {value!r}")
    return value


def _instance(value, name, *kinds):
    """`value` if it is an instance of one of the classes `kinds`."""
    if not isinstance(value, kinds):
        names = " or ".join(kind.__name__ for kind in kinds)
        raise TypeError(f"{name} must be a {names}, got {type(value).__name__}")
    return value


def _check_outcome(outcome, name="outcome"):
    """The one check of an atom outcome, "+" or "-", for both routes."""
    if outcome not in ("+", "-"):
        raise ValueError(f"{name} must be '+' or '-'")
