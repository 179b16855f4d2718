"""Self-check suites: fast analytic invariants and full oracle cross-checks.

Each check returns a CheckResult; the CLI `validate` subcommand prints the
report and exits nonzero if anything failed.  The fast suite touches only the
closed-form path and runs in seconds; the full suite adds master-equation
propagations up to the paper's nbar = 49 and derivative residuals of the
dressed-frame equations of motion.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import oracle
from .damping import DampingParams, evolve, f_star, initial_state
from .dressed import JCParams, build_dressed_frame
from .observables import ExperimentConfig, p_excited, p_joint
from .presets import PRESETS
from .resummation import ResumParams, resummed_p_excited
from .states import CatSpec, cat_distribution, coherent_distribution, default_truncation


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name, passed, detail):
    return CheckResult(name=name, passed=bool(passed), detail=detail)


# ---------------------------------------------------------------------------
# fast suite
# ---------------------------------------------------------------------------

def check_cat_normalization():
    """Cat photon distributions sum to one across intensity and phase."""
    worst = 0.0
    for intensity in (0.5, 3.3, 20.0, 49.0):
        for phase in (0.0, 1.0, math.pi / 2, math.pi - 0.3):
            d = cat_distribution(CatSpec(intensity=intensity, phase=phase))
            worst = max(worst, abs(d.probs.sum() - 1.0))
    return _result("cat-normalization", worst < 1e-9, f"max |sum-1| = {worst:.2e}")


def check_mass_conservation():
    """Diagonal evolution conserves total mass including the ground term."""
    damping = DampingParams(kappa=8.33, n_thermal=0.1)
    p0 = cat_distribution(CatSpec(intensity=9.0))
    state0 = initial_state(p0)
    worst = 0.0
    for t in (0.01, 0.05, 0.2):
        state = evolve(state0, damping, t)
        total = state.f.sum() + 0.5 * state.f_ground
        worst = max(worst, abs(total - 1.0))
    return _result("mass-conservation", worst < 1e-9, f"max |mass-1| = {worst:.2e}")


def check_single_photon_decay():
    """One initial photon at zero temperature follows the two-term closed form."""
    damping = DampingParams(kappa=1.0)
    p0 = np.zeros(33)
    p0[1] = 1.0
    t = 0.1
    f = f_star(p0, damping, t)
    exact1 = math.exp(-3.0 * t)
    exact0 = 1.5 * math.exp(-t) * (1.0 - math.exp(-2.0 * t))
    err = max(abs(f[1] - exact1), abs(f[0] - exact0))
    return _result("single-photon-closed-form", err < 1e-12, f"max err = {err:.2e}")


def check_joint_collapse():
    """Two-atom joint at coincident times reduces to the one-atom law."""
    preset = PRESETS["brune96"]
    config = ExperimentConfig(jc=preset.jc(), damping=preset.damping(0.1),
                              initial_field=CatSpec(intensity=3.3))
    worst = 0.0
    for gt in (2.0, 10.0, 21.0):
        t = gt / preset.g
        single = p_excited(config, t)
        joint = p_joint(config, t, t, "+", "+")
        worst = max(worst, abs(joint - single))
    return _result("joint-collapse", worst < 1e-9, f"max |P(++)-P(+)| = {worst:.2e}")


def check_resummation_agreement():
    """Image-sum revival probability tracks the direct sum at large n-bar."""
    preset = PRESETS["benson97"]
    nbar = 49.0
    config = ExperimentConfig(jc=preset.jc(), damping=preset.damping(0.1),
                              initial_field=CatSpec(intensity=nbar))
    params = ResumParams(nbar=nbar, phase=0.0, max_order=6,
                         damping=preset.damping(0.1), g=preset.g)
    gts = np.linspace(0.5, 50.0, 60)
    ts = gts / preset.g
    direct = p_excited(config, ts)
    image = resummed_p_excited(params, ts)
    worst = float(np.abs(direct - image).max())
    # frozen regression bound; see the acceptance suite for the rationale
    return _result("resummation-agreement", worst < 0.075,
                   f"sup |direct - resummed| = {worst:.2e}")


def fast_checks():
    return [
        check_cat_normalization(),
        check_mass_conservation(),
        check_single_photon_decay(),
        check_joint_collapse(),
        check_resummation_agreement(),
    ]


# ---------------------------------------------------------------------------
# full suite
# ---------------------------------------------------------------------------

def check_oracle_f_star(nbar, kappa_scale=1.0, tol=1e-3, n_points=6):
    """Dressed-diagonal populations from the oracle vs the closed form.

    benson97 rates, zero temperature, coherent field.  kappa_scale perturbs
    the oracle's decay rate only, for the sensitivity counter-check.
    """
    preset = PRESETS["benson97"]
    trunc = default_truncation(nbar)
    damping_true = preset.damping(0.0)
    damping_oracle = DampingParams(kappa=preset.kappa * kappa_scale)
    p0 = coherent_distribution(nbar, trunc)
    times = np.linspace(0.0, 1.0 / preset.kappa, n_points)

    rho0 = oracle.build_initial_state(p0, trunc)
    traj = oracle.integrate_trajectory(rho0, preset.jc(), damping_oracle, times)
    frame = build_dressed_frame(preset.jc(), trunc)
    obs = oracle.oracle_observables(traj, frame)

    worst = 0.0
    for i, t in enumerate(times):
        f_ref = f_star(p0, damping_true, t)
        worst = max(worst, float(np.abs(obs.f[i] - f_ref[:trunc]).max()))
    label = "oracle-f-star" if kappa_scale == 1.0 else "oracle-f-star-perturbed"
    passed = worst < tol if kappa_scale == 1.0 else worst >= tol
    return _result(f"{label}-nbar{nbar:g}", passed, f"max |F_n - F*_n| = {worst:.2e}")


def check_w_residuals(nbar=4.0, n_thermal=0.1):
    """Equation-of-motion residuals of the dressed W frame along a trajectory."""
    preset = PRESETS["benson97"]
    trunc = default_truncation(nbar)
    jc = preset.jc()
    damping = preset.damping(n_thermal)
    rho0 = oracle.build_initial_state(CatSpec(intensity=nbar), trunc)
    dt = 0.04 / jc.g
    centers = [20.0 / jc.g, 300.0 / jc.g]
    windows = oracle.w_trajectory(rho0, jc, damping, centers, dt)
    frame = build_dressed_frame(jc, trunc)
    worst = 0.0
    w_norm = 0.0
    for window in windows:
        report = oracle.w_equation_residuals(window, frame, damping, dt)
        w_norm = max(w_norm, report.pop("w_norm"))
        worst = max(worst, max(report.values()))
    bound = 1e-3 * damping.kappa * w_norm
    return _result("w-equation-residuals", worst < bound,
                   f"max residual = {worst:.2e}, bound = {bound:.2e}")


def full_checks():
    results = fast_checks()
    results.append(check_oracle_f_star(4.0))
    results.append(check_oracle_f_star(9.0))
    results.append(check_oracle_f_star(49.0))
    results.append(check_oracle_f_star(4.0, kappa_scale=1.1))
    results.append(check_w_residuals())
    return results
