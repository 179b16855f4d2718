"""The input rules of both routes: one table of malformed inputs against
every public entry, and a scan of the sources that keeps each rule's
message in the one helper of `catcavity.errors` that raises it."""

import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from catcavity import (
    CatSpec,
    DampingParams,
    DegenerateCatError,
    ExperimentConfig,
    JCParams,
    PhotonDistribution,
    cat_distribution,
    cat_mean_photons,
    coherent_distribution,
    conditioned_field,
    decoherence_time,
    default_truncation,
    eta_correlation,
    f_star,
    f_star_ground,
    oracle,
    p_excited,
    p_joint,
    revival_curves,
)
from catcavity.dressed import (build_dressed_frame, dressed_annihilation,
                               dressed_basis)
from catcavity.resummation import ResumParams, resummed_p_excited

SRC = Path(__file__).resolve().parents[1] / "src" / "catcavity"

#: The message each rule raises, as a pattern for `pytest.raises(match=)`.
TIME = "time must be finite and non-negative"
ONE_TIME = "expected one time"
COUNT = "must be -?[0-9]+ or a larger integer"
INTENSITY = "must be finite and non-negative"
PROBS = "must be a 1-d array of finite values"
PARAMETER = "must be a finite number"
SPACING = "window times must increase at a uniform spacing"
ORDER = "non-decreasing"

#: Each is refused alone and also as an entry of a list of times, where
#: `np.asarray` would make a bool 0.0 or 1.0.
BAD_TIMES = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf,
             "negative": -1e-6, "text": "1e-4", "bool": True}
BAD_COUNTS = {"negative": -1, "non-integer": 40.5, "bool": True,
              "nan": math.nan, "inf": math.inf}
BAD_INTENSITIES = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf,
                   "negative": -1.0, "text": "2.0", "bool": True,
                   "array": [1.0, 2.0]}
BAD_PROBS = {"nan": [0.5, math.nan, 0.5], "inf": [0.5, math.inf],
             "2-d": [[0.5, 0.5], [0.5, 0.5]], "scalar": 0.5,
             "text": ["0.5", "0.5"], "bool": [True, False]}
BAD_FINITE = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf,
              "text": "1.0", "bool": True}
BAD_POSITIVE = dict(BAD_FINITE, zero=0.0, negative=-1.0)

JC = JCParams(g=36000.0)
DAMPING = DampingParams(kappa=8.33, n_thermal=0.1)
SPEC = CatSpec(intensity=2.0, phase=1.1)
P0 = coherent_distribution(2.0, 32).probs
RHO0 = oracle.build_initial_state(SPEC, 16)
CONFIG = ExperimentConfig(jc=JC, damping=DAMPING, initial_field=SPEC)
RESUM = ResumParams(nbar=49.0, phase=0.0, max_order=3, damping=DAMPING,
                    g=JC.g)


def _window(times):
    """The trajectory of RHO0 at `times`, a window for
    `w_equation_residuals`."""
    return oracle.integrate_trajectory(RHO0, JC, DAMPING, times)


WINDOW = _window(1e-4 + 1e-6 * np.arange(5.0))
BAD_WINDOWS = {"zero-spaced": _window([1e-4] * 5),
               "non-uniform": _window(1e-4 + 1e-6 * np.r_[0.0, 1, 2, 3.5, 4])}

#: entry -> (call of the bad value, bad values, message)
ENTRIES = {
    # times
    "p_excited": (lambda v: p_excited(CONFIG, v), BAD_TIMES, TIME),
    "p_excited-listed": (lambda v: p_excited(CONFIG, [0.0, v]), BAD_TIMES,
                         TIME),
    "p_joint-t_a": (lambda v: p_joint(CONFIG, v, 1e-4, "+", "+"),
                    BAD_TIMES, TIME),
    "p_joint-t_b": (lambda v: p_joint(CONFIG, 1e-5, v, "+", "+"),
                    BAD_TIMES, TIME),
    "revival_curves": (lambda v: revival_curves(CONFIG, v), BAD_TIMES, TIME),
    "eta_correlation": (lambda v: eta_correlation(CONFIG, v), BAD_TIMES,
                        TIME),
    "conditioned_field": (lambda v: conditioned_field(CONFIG, v, "+"),
                          BAD_TIMES, TIME),
    "f_star-t": (lambda v: f_star(P0, DAMPING, v), BAD_TIMES, TIME),
    "f_star_ground-t": (lambda v: f_star_ground(P0, DAMPING, v), BAD_TIMES,
                        TIME),
    "resummed_p_excited": (lambda v: resummed_p_excited(RESUM, v), BAD_TIMES,
                           TIME),
    "integrate_trajectory": (lambda v: oracle.integrate_trajectory(
        RHO0, JC, DAMPING, [0.0, v]), BAD_TIMES, TIME),
    "joint_probability_oracle-t_a": (lambda v: oracle.joint_probability_oracle(
        RHO0, JC, DAMPING, v, 1e-4, "+", "+"), BAD_TIMES, TIME),
    "joint_probability_oracle-t_b": (lambda v: oracle.joint_probability_oracle(
        RHO0, JC, DAMPING, 1e-5, v, "+", "+"), BAD_TIMES, TIME),
    "branch_coherence_trajectory-times": (
        lambda v: oracle.branch_coherence_trajectory(SPEC, DAMPING, [0.0, v],
                                                     16),
        BAD_TIMES, TIME),
    "DensityMatrix-time": (lambda v: oracle.DensityMatrix(RHO0.matrix, v),
                           BAD_TIMES, TIME),
    # a reversed window is refused before any residual can read it
    "integrate_trajectory-order": (lambda v: oracle.integrate_trajectory(
        RHO0, JC, DAMPING, v), {"reversed": 1e-4 - 1e-6 * np.arange(5.0)},
        ORDER),
    # one time, not an array
    "f_star-shape": (lambda v: f_star(P0, DAMPING, v),
                     {"array": [[0.1]]}, ONE_TIME),
    # truncations and integer counts
    "ExperimentConfig-truncation": (
        lambda v: dataclasses.replace(CONFIG, truncation=v),
        dict(BAD_COUNTS, negative=-3), COUNT),
    "ResumParams-max_order": (
        lambda v: dataclasses.replace(RESUM, max_order=v),
        dict(BAD_COUNTS, zero=0, **{"non-integer": 2.5}), COUNT),
    "coherent_distribution-truncation": (
        lambda v: coherent_distribution(4.0, v), BAD_COUNTS, COUNT),
    "cat_distribution-truncation": (lambda v: cat_distribution(SPEC, v),
                                    BAD_COUNTS, COUNT),
    "dressed_basis": (dressed_basis, dict(BAD_COUNTS, **{"non-integer": 3.5}),
                      COUNT),
    "dressed_annihilation": (dressed_annihilation,
                             dict(BAD_COUNTS, **{"non-integer": 3.5}), COUNT),
    "build_dressed_frame": (lambda v: build_dressed_frame(JC, v), BAD_COUNTS,
                            COUNT),
    "coherent_state_vector-truncation": (
        lambda v: oracle.coherent_state_vector(1.0, v), BAD_COUNTS, COUNT),
    "cat_state_vector-truncation": (
        lambda v: oracle.cat_state_vector(SPEC, v), BAD_COUNTS, COUNT),
    "build_initial_state-truncation": (
        lambda v: oracle.build_initial_state(SPEC, v), BAD_COUNTS, COUNT),
    "branch_coherence_trajectory-truncation": (
        lambda v: oracle.branch_coherence_trajectory(SPEC, DAMPING,
                                                     [0.0, 1e-4], v),
        dict(BAD_COUNTS, **{"non-integer": 20.5}), COUNT),
    "liouvillian-truncation": (lambda v: oracle.liouvillian(JC, DAMPING, v),
                               dict(BAD_COUNTS, **{"non-integer": 3.5}),
                               COUNT),
    # intensities
    "CatSpec-intensity": (lambda v: CatSpec(intensity=v), BAD_INTENSITIES,
                          INTENSITY),
    "coherent_distribution-intensity": (
        lambda v: coherent_distribution(v, 40), BAD_INTENSITIES, INTENSITY),
    "default_truncation": (default_truncation,
                           dict(BAD_INTENSITIES, negative=-5.0), INTENSITY),
    "coherent_state_vector-intensity": (
        lambda v: oracle.coherent_state_vector(v, 5), BAD_INTENSITIES,
        INTENSITY),
    "DampingParams-n_thermal": (
        lambda v: DampingParams(kappa=1.0, n_thermal=v), BAD_INTENSITIES,
        INTENSITY),
    # probability arrays
    "PhotonDistribution": (PhotonDistribution, BAD_PROBS, PROBS),
    "f_star-p0": (lambda v: f_star(v, DAMPING, 1e-4), BAD_PROBS, PROBS),
    "f_star_ground-p0": (lambda v: f_star_ground(v, DAMPING, 1e-4), BAD_PROBS,
                         PROBS),
    # scalar parameters
    "DampingParams-kappa": (lambda v: DampingParams(kappa=v), BAD_POSITIVE,
                            PARAMETER),
    "JCParams-g": (lambda v: JCParams(g=v), BAD_POSITIVE, PARAMETER),
    "CatSpec-phase": (lambda v: CatSpec(intensity=1.0, phase=v), BAD_FINITE,
                      PARAMETER),
    "ResumParams-nbar": (lambda v: dataclasses.replace(RESUM, nbar=v),
                         BAD_POSITIVE, PARAMETER),
    "ResumParams-phase": (lambda v: dataclasses.replace(RESUM, phase=v),
                          BAD_FINITE, PARAMETER),
    "ResumParams-g": (lambda v: dataclasses.replace(RESUM, g=v), BAD_POSITIVE,
                      PARAMETER),
    # the spacing of a residual window, read from its samples' times
    "w_equation_residuals-window": (lambda v: oracle.w_equation_residuals(
        v, JC, DAMPING), BAD_WINDOWS, SPACING),
}


@pytest.mark.parametrize("call, value, rule", [
    pytest.param(call, value, rule, id=f"{entry}-{label}")
    for entry, (call, values, rule) in ENTRIES.items()
    for label, value in values.items()])
def test_malformed_input_rejected(call, value, rule):
    with pytest.raises(ValueError, match=rule):
        call(value)


@pytest.mark.parametrize("call, field", [
    (lambda: dataclasses.replace(CONFIG, jc=None), "jc"),
    (lambda: dataclasses.replace(CONFIG, damping=None), "damping"),
    (lambda: dataclasses.replace(CONFIG, initial_field=[0.5, 0.5]),
     "initial_field"),
    (lambda: dataclasses.replace(RESUM, damping=None), "damping"),
    (lambda: oracle.w_equation_residuals(list(WINDOW), JC, DAMPING),
     "window"),
    (lambda: oracle.w_equation_residuals(WINDOW, None, DAMPING), "jc"),
    (lambda: oracle.w_equation_residuals(WINDOW, JC, None), "damping"),
    (lambda: oracle.oracle_observables(list(WINDOW), JC), "trajectory"),
    (lambda: oracle.oracle_observables(WINDOW, None), "jc"),
    (lambda: oracle.joint_probability_oracle(
        RHO0.matrix, JC, DAMPING, 1e-5, 1e-4, "+", "+"), "rho0"),
    (lambda: oracle.joint_probability_oracle(
        RHO0, JC.g, DAMPING, 1e-5, 1e-4, "+", "+"), "jc"),
    (lambda: oracle.joint_probability_oracle(
        RHO0, JC, "x", 1e-5, 1e-4, "+", "+"), "damping"),
    (lambda: oracle.integrate_trajectory(RHO0.matrix, JC, DAMPING, [0.0]),
     "rho0"),
    (lambda: oracle.integrate_trajectory(RHO0, "x", DAMPING, [0.0]), "jc"),
    (lambda: oracle.integrate_trajectory(RHO0, None, DAMPING, [0.0]), "jc"),
    (lambda: oracle.integrate_trajectory(RHO0, JC, None, [0.0]), "damping"),
    (lambda: oracle.liouvillian(JC.g, DAMPING, 2), "jc"),
    (lambda: oracle.liouvillian(JC, None, 2), "damping"),
    (lambda: oracle.build_initial_state(P0, 32), "fieldspec"),
    (lambda: oracle.branch_coherence_trajectory(
        coherent_distribution(2.0, 16), DAMPING, [0.0, 1e-4], 16), "spec"),
    (lambda: oracle.branch_coherence_trajectory(SPEC, JC, [0.0, 1e-4], 16),
     "damping"),
    (lambda: conditioned_field([CONFIG, CONFIG], 1e-4, "+"), "config"),
    (lambda: decoherence_time([CONFIG]), "config"),
    # a sequence of configs holds configs; a dict is iterated by its keys
    (lambda: p_excited("abc", 1e-4), "configs"),
    (lambda: p_excited([1, 2], 1e-4), "configs"),
    (lambda: p_excited({"a": CONFIG}, 1e-4), "configs"),
    (lambda: eta_correlation(3.0, 1e-4), "configs"),
    (lambda: resummed_p_excited("x", 1e-4), "params"),
    (lambda: cat_distribution(2.0), "spec"),
    (lambda: cat_distribution(coherent_distribution(2.0, 32)), "spec"),
    (lambda: cat_mean_photons(3.0), "spec"),
    (lambda: oracle.cat_state_vector(2.0, 32), "spec"),
    (lambda: oracle.cat_state_vector(coherent_distribution(2.0, 32), 32),
     "spec"),
    # entry indices: a bool is not index 0 or 1, nor a bool array a mask
    (lambda: WINDOW.entries(True, True), "rows and cols"),
    (lambda: WINDOW.entries(np.array([True, False]), 0), "rows and cols"),
    (lambda: WINDOW.entries(0.0, 1), "rows and cols"),
    (lambda: WINDOW.entries(np.arange(3), np.arange(3.0)), "rows and cols"),
], ids=["config-jc", "config-damping", "config-initial_field",
        "resum-damping", "w_equation_residuals-window",
        "w_equation_residuals-jc", "w_equation_residuals-damping",
        "oracle_observables-trajectory",
        "oracle_observables-jc", "joint_probability_oracle-rho0",
        "joint_probability_oracle-jc", "joint_probability_oracle-damping",
        "integrate_trajectory-rho0", "integrate_trajectory-jc",
        "integrate_trajectory-jc-none", "integrate_trajectory-damping",
        "liouvillian-jc", "liouvillian-damping",
        "build_initial_state-fieldspec", "branch_coherence_trajectory-spec",
        "branch_coherence_trajectory-damping", "conditioned_field-config",
        "decoherence_time-config", "p_excited-configs-text",
        "p_excited-configs-ints", "p_excited-configs-dict",
        "eta_correlation-configs-number", "resummed_p_excited-params",
        "cat_distribution-spec", "cat_distribution-spec-distribution",
        "cat_mean_photons-spec", "cat_state_vector-spec",
        "cat_state_vector-spec-distribution", "entries-bool", "entries-bool-mask",
        "entries-float", "entries-float-cols"])
def test_compound_input_of_wrong_type_rejected(call, field):
    with pytest.raises(TypeError, match=f"^{field} must be a "):
        call()


def test_degenerate_cat_refused_alike_by_every_entry():
    spec = CatSpec(intensity=1e-9, phase=math.pi)
    errors = []
    for call in (lambda: cat_distribution(spec, 32),
                 lambda: cat_mean_photons(spec),
                 lambda: oracle.cat_state_vector(spec, 32)):
        with pytest.raises(DegenerateCatError) as info:
            call()
        errors.append((type(info.value), str(info.value)))
    assert errors == [errors[0]] * 3


#: A fragment of each rule's message -> the one function that raises it.
RULE_RAISERS = {
    "must be finite and non-negative": "errors._nonnegative",
    "expected one time": "errors._times",
    "times must be a scalar or a 1-d array": "errors._times",
    "or a larger integer": "errors._count",
    "1-d array of finite values": "errors._probabilities",
    "must be a finite number": "errors._parameter",
    "must be '+' or '-'": "errors._check_outcome",
}

#: ValueErrors and ConfigurationErrors outside the helpers that may still
#: speak of these words: the oracle's check of complex matrices.
OWN_CHECKS = {"oracle.DensityMatrix.__post_init__"}


def _raise_texts():
    """(module.function, exception, message text) of every raise in the
    package, the function being the innermost one that holds it."""
    found = []

    def visit(node, owner, module):
        for child in ast.iter_child_nodes(node):
            name = owner
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = f"{owner}.{child.name}" if owner else child.name
            if isinstance(child, ast.Raise) and child.exc is not None:
                text = "".join(c.value for c in ast.walk(child.exc)
                               if isinstance(c, ast.Constant)
                               and isinstance(c.value, str))
                error = getattr(getattr(child.exc, "func", None), "id", None)
                found.append((f"{module}.{name}", error, text))
            visit(child, name, module)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), "", path.stem)
    return found


def test_each_rule_raised_from_one_helper():
    texts = _raise_texts()
    for fragment, helper in RULE_RAISERS.items():
        assert {f for f, _, text in texts if fragment in text} == {helper}, \
            fragment
    copies = {f for f, error, text in texts
              if error in ("ValueError", "ConfigurationError")
              and not f.startswith("errors.")
              and f not in OWN_CHECKS
              and any(word in text for word in ("finite", "negative",
                                                "positive", "integer"))}
    assert copies == set()
