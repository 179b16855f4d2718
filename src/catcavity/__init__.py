"""Revival probabilities, atom correlations and decoherence of a damped
cavity field prepared in a superposition of coherent states.

The closed-form path (states, dressed, damping, observables, resummation)
evaluates everything through the photon-number distribution and analytic
decay kernels; the oracle module integrates the full master equation in a
truncated basis and exists to cross-check the closed forms.
"""

from .damping import doublet_decay_rate, f_star, f_star_ground
from .errors import (
    CatCavityError,
    ConfigurationError,
    ConsistencyError,
    DegenerateCatError,
    TruncationError,
    ValidityWarning,
)
from .observables import (
    ExperimentConfig,
    conditioned_field,
    decoherence_time,
    eta_correlation,
    p_excited,
    p_joint,
    revival_curves,
)
from .params import DampingParams, JCParams
from .presets import PRESETS, ExperimentPreset
from .resummation import ResumParams, resummed_p_excited
from .states import (
    CatSpec,
    PhotonDistribution,
    cat_distribution,
    cat_mean_photons,
    coherent_distribution,
    default_truncation,
)

__all__ = [
    "CatCavityError",
    "CatSpec",
    "ConfigurationError",
    "ConsistencyError",
    "DampingParams",
    "DegenerateCatError",
    "ExperimentConfig",
    "ExperimentPreset",
    "JCParams",
    "PRESETS",
    "PhotonDistribution",
    "ResumParams",
    "TruncationError",
    "ValidityWarning",
    "cat_distribution",
    "cat_mean_photons",
    "coherent_distribution",
    "conditioned_field",
    "decoherence_time",
    "default_truncation",
    "doublet_decay_rate",
    "eta_correlation",
    "f_star",
    "f_star_ground",
    "p_excited",
    "p_joint",
    "resummed_p_excited",
    "revival_curves",
]
