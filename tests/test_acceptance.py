"""End-to-end acceptance checks.

Each test prints one summary line (criterion name, PASS/FAIL, the measured
number against its bound) before asserting, so a full run shows the whole
scorecard even under -q.  Criteria 1, 4, 5 and 6 assert the checks of
`catcavity.validation`, the ones `catcavity validate` runs.
"""

import math
import time

import numpy as np
import pytest

from catcavity import (
    CatSpec,
    DampingParams,
    ExperimentConfig,
    JCParams,
    PRESETS,
    coherent_distribution,
    decoherence_time,
    default_truncation,
    p_excited,
    p_joint,
)
from catcavity import oracle
from catcavity.damping import f_star, f_star_ground
from catcavity.validation import (
    check_mass_conservation,
    check_oracle_f_star,
    check_resummation_agreement,
    check_w_residuals,
)
from references import f_star_ground_double_sum

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

BENSON = PRESETS["benson97"]
BRUNE = PRESETS["brune96"]


def _report(label, passed, detail):
    print(f"\n[{'PASS' if passed else 'FAIL'}] {label}: {detail}")
    assert passed, f"{label}: {detail}"


def _peak(config, values_fn, gt_lo, gt_hi, step=0.1):
    gts = np.arange(gt_lo, gt_hi + step / 2, step)
    vals = np.array([values_fn(config, gt / config.jc.g) for gt in gts])
    return gts[vals.argmax()]


def _criterion_1(nbar):
    start = time.monotonic()
    result = check_oracle_f_star(nbar)
    elapsed = time.monotonic() - start
    _report(
        f"criterion 1 (zero-temperature diagonal vs oracle, nbar = {nbar:g})",
        result.passed and elapsed < 60.0,
        f"{result.detail} (< 1e-3), runtime {elapsed:.1f}s (< 60s)",
    )


def test_criterion_1_exact_diagonal_at_zero_temperature():
    _criterion_1(4.0)


def test_criterion_1_at_paper_operating_point():
    # nbar = 49 (N = 120), the benson97 operating point of the paper
    _criterion_1(49.0)


def test_criterion_2_revival_peak_positions():
    start = time.monotonic()
    damping = DampingParams(kappa=BENSON.kappa, n_thermal=0.1)
    coh = ExperimentConfig(
        jc=BENSON.jc(), damping=damping,
        initial_field=coherent_distribution(49.0, default_truncation(49.0)))
    cat = ExperimentConfig(jc=BENSON.jc(), damping=damping,
                           initial_field=CatSpec(intensity=49.0))

    def single(config, t):
        return p_excited(config, t)

    def joint(config, t):
        return p_joint(config, t, 2.0 * t, "+", "+")

    peaks = {
        "coherent P+ revival": (_peak(coh, single, 38.0, 50.0), 44.0, 2.2),
        "cat P+ revival": (_peak(cat, single, 16.0, 28.0), 22.0, 1.1),
        "coherent P++ prerevival": (_peak(coh, joint, 16.0, 28.0), 22.0, 1.1),
        "cat P++ prerevival": (_peak(cat, joint, 8.0, 14.0), 11.0, 0.6),
    }
    elapsed = time.monotonic() - start
    ok = all(abs(got - want) <= tol for got, want, tol in peaks.values())
    detail = ", ".join(
        f"{name} at gt={got:.1f} (want {want}±{tol})"
        for name, (got, want, tol) in peaks.items()
    )
    _report(
        "criterion 2 (revival peak positions)",
        ok and elapsed < 30.0,
        f"{detail}, runtime {elapsed:.1f}s (< 30s)",
    )


def test_criterion_3_phase_control():
    damping = DampingParams(kappa=BENSON.kappa, n_thermal=0.1)
    coh = ExperimentConfig(
        jc=BENSON.jc(), damping=damping,
        initial_field=coherent_distribution(49.0, default_truncation(49.0)))
    even = ExperimentConfig(jc=BENSON.jc(), damping=damping,
                            initial_field=CatSpec(intensity=49.0))
    quarter = ExperimentConfig(
        jc=BENSON.jc(), damping=damping,
        initial_field=CatSpec(intensity=49.0, phase=math.pi / 2))
    gts = np.arange(15.0, 30.0 + 0.05, 0.1)
    ts = gts / BENSON.g
    d_quarter = float(np.abs(p_excited(quarter, ts) - p_excited(coh, ts)).max())
    d_even = float(np.abs(p_excited(even, ts) - p_excited(coh, ts)).max())
    _report(
        "criterion 3 (phase control)",
        d_quarter < 0.02 and d_even > 0.1,
        f"sup|P(phi=pi/2) - P(coh)| = {d_quarter:.2e} (< 0.02), "
        f"sup|P(phi=0) - P(coh)| = {d_even:.3f} (> 0.1)",
    )


def test_criterion_4_poisson_resummation():
    result = check_resummation_agreement()
    _report("criterion 4 (Poisson resummation)", result.passed, result.detail)


def test_criterion_5_unitarity():
    mass = check_mass_conservation()
    damping = DampingParams(kappa=2.0, n_thermal=0.2)
    p_small = coherent_distribution(3.0, 20).probs
    p_small = p_small / p_small.sum()
    worst_sum = max(
        abs(f_star_ground(p_small, damping, t)
            - f_star_ground_double_sum(p_small, damping, t))
        for t in (0.0, 0.05, 0.2, 0.6)
    )
    _report(
        "criterion 5 (unitarity)",
        mass.passed and worst_sum < 1e-8,
        f"{mass.detail} over 100 times x 2 presets and a cat, "
        f"double-sum mismatch = {worst_sum:.1e} (< 1e-8)",
    )


def test_criterion_6_w_equations_and_secular_envelope():
    residuals = check_w_residuals()

    # secular-solution deviation must sit under a first-order kappa/g envelope
    trunc = default_truncation(4.0)
    kappa = 8.33
    p0 = coherent_distribution(4.0, trunc)
    dmp0 = DampingParams(kappa=kappa)
    times = np.linspace(0.0, 1.0 / kappa, 6)
    ratios = (10.0, 100.0, 1000.0)
    devs = []
    for ratio in ratios:
        jc_r = JCParams(g=kappa * ratio)
        traj = oracle.integrate_trajectory(
            oracle.build_initial_state(p0, trunc), jc_r, dmp0, times)
        obs = oracle.oracle_observables(traj, jc_r)
        devs.append(max(
            float(np.abs(obs.f[i] - f_star(p0, dmp0, t)[:trunc]).max())
            for i, t in enumerate(times)
        ))
    slope = float(np.polyfit(np.log(ratios), np.log(devs), 1)[0])
    envelope_ok = all(
        dev <= 1.5 * devs[0] * ratios[0] / ratio
        for dev, ratio in zip(devs, ratios)
    )
    _report(
        "criterion 6 (dressed-frame equations of motion)",
        residuals.passed and slope < -0.8 and envelope_ok,
        f"{residuals.detail} (1e-3*kappa*||W||), "
        f"secular deviation slope = {slope:.2f} (< -0.8), "
        f"deviations {['%.1e' % d for d in devs]} under 1.5*(kappa/g) envelope",
    )


def test_criterion_7_decoherence_scaling():
    # the 1/e time of the oracle's branch coherence scales as 1/nbar, speeds
    # up by 1 + 2 n_b, and is half of decoherence_time (its docstring says
    # why), up to the paper's nbar = 49 (N = 120)
    kappa = BENSON.kappa

    def decay_time(nbar, nb):
        trunc = default_truncation(nbar)
        damping = DampingParams(kappa=kappa, n_thermal=nb)
        guess = damping.t_cav / (2.0 * nbar * (1.0 + 2.0 * nb))
        times = np.linspace(0.0, 4.0 * guess, 41)
        coh = oracle.branch_coherence_trajectory(
            CatSpec(intensity=nbar), damping, times, trunc)
        rel = coh / coh[0]
        i = int(np.argmax(rel < math.exp(-1.0)))
        f0, f1 = rel[i - 1], rel[i]
        return times[i - 1] + (math.exp(-1.0) - f0) * (times[i] - times[i - 1]) / (f1 - f0)

    def claimed_time(nbar, nb):
        return decoherence_time(ExperimentConfig(
            jc=BENSON.jc(), damping=DampingParams(kappa=kappa, n_thermal=nb),
            initial_field=CatSpec(intensity=nbar)))

    nbars = (4.0, 9.0, 25.0, 49.0)
    td = {(nbar, nb): decay_time(nbar, nb) for nbar in nbars
          for nb in (0.0, 0.2)}
    exponent = math.log(td[(9.0, 0.0)] / td[(4.0, 0.0)]) / math.log(9.0 / 4.0)
    thermal_ratio = 0.5 * (td[(4.0, 0.0)] / td[(4.0, 0.2)]
                           + td[(9.0, 0.0)] / td[(9.0, 0.2)])
    claimed = 0.5 * sum(claimed_time(nbar, 0.0) / claimed_time(nbar, 0.2)
                        for nbar in (4.0, 9.0))
    prefactor = {key: value / claimed_time(*key) for key, value in td.items()}
    _report(
        "criterion 7 (decoherence scaling)",
        abs(exponent + 1.0) < 0.2
        and abs(thermal_ratio - claimed) / claimed < 0.05
        and all(0.49 <= ratio <= 0.55 for ratio in prefactor.values()),
        f"t_d ~ nbar^{exponent:.2f} (want -1 ± 0.2), thermal speed-up "
        f"{thermal_ratio:.3f} vs decoherence_time {claimed:.3f} (within 5%), "
        f"t_1/e / decoherence_time "
        f"{', '.join(f'{r:.3f}' for r in prefactor.values())} "
        f"at nbar {nbars} x n_b (0, 0.2) (want 0.49-0.55)",
    )


def test_criterion_8_fig2_minor_difference():
    damping = DampingParams(kappa=BRUNE.kappa, n_thermal=0.1)
    coh = ExperimentConfig(
        jc=BRUNE.jc(), damping=damping,
        initial_field=coherent_distribution(3.3, default_truncation(3.3)))
    cat = ExperimentConfig(jc=BRUNE.jc(), damping=damping,
                           initial_field=CatSpec(intensity=3.3))
    gts = np.arange(0.0, 25.0 + 0.05, 0.1)
    ts = gts / BRUNE.g
    diff = float(np.abs(p_excited(cat, ts) - p_excited(coh, ts)).max())
    _report(
        "criterion 8 (cat vs coherent at strong damping)",
        diff < 0.1,
        f"sup-norm difference = {diff:.3f} (< 0.1)",
    )
