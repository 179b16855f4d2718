import dataclasses
import math

import numpy as np
import pytest

from catcavity import (
    CatSpec,
    DampingParams,
    ExperimentConfig,
    JCParams,
    PRESETS,
    ValidityWarning,
    coherent_distribution,
    p_excited,
)
from catcavity.resummation import (
    ResumParams,
    _collapse,
    _revival,
    resummed_p_excited,
)
from catcavity.states import _log_poisson
from references import resummed_loop_reference

BENSON = dict(g=36000.0, kappa=8.33)


def _params(nbar=49.0, phase=0.0, max_order=3, n_thermal=0.1):
    return ResumParams(
        nbar=nbar,
        phase=phase,
        max_order=max_order,
        damping=DampingParams(kappa=BENSON["kappa"], n_thermal=n_thermal),
        g=BENSON["g"],
    )


def _fractional_poisson(nbar, x):
    """Poisson weight nbar^x e^{-nbar} / Gamma(x + 1) at a real x >= 0, as
    `_revival` reads it."""
    return float(np.exp(_log_poisson(nbar, np.asarray(x))))


def test_fractional_poisson_matches_integer_pmf():
    probs = coherent_distribution(49.0, 120).probs
    for n in (30, 49, 70):
        assert _fractional_poisson(49.0, float(n)) == pytest.approx(
            probs[n], rel=1e-12
        )
    assert _fractional_poisson(49.0, 49.0) == pytest.approx(0.05690, abs=5e-5)


def test_fractional_poisson_at_zero():
    assert _fractional_poisson(49.0, 0.0) == pytest.approx(math.exp(-49.0))


def test_fractional_poisson_smooth_across_peak():
    lo = _fractional_poisson(49.0, 48.5)
    hi = _fractional_poisson(49.0, 49.5)
    peak = _fractional_poisson(49.0, 49.0)
    assert lo == pytest.approx(peak, rel=0.01)
    assert hi == pytest.approx(peak, rel=0.01)


def test_collapse_wave_at_zero_is_one():
    assert _collapse(_params(), 0.0) == pytest.approx(1.0)


def test_revival_wave_vanishes_at_small_time():
    params = _params()
    assert abs(_revival(params, 1.0, params.g * 1e-6)) < 1e-15


@pytest.mark.parametrize("nu", [0.5, 1.0, 1.5])
def test_revival_envelope_peaks_at_expected_time(nu):
    params = _params()
    g = params.g
    center = 2.0 * math.pi * nu * math.sqrt(params.nbar) / g
    ts = np.linspace(0.5 * center, 1.5 * center, 4001)
    envelope = np.abs(_revival(params, nu, g * ts))
    peak_t = ts[np.argmax(envelope)]
    assert abs(peak_t - center) / center < 0.03


@pytest.mark.filterwarnings("ignore::catcavity.ValidityWarning")
@pytest.mark.parametrize("max_order", [1, 2, 3, 6])
def test_resummed_bit_identical_to_per_order_loop(max_order):
    # the one (waves, times) array against one pair of waves per order, at
    # random parameters of both presets, for an array of times and a
    # scalar
    rng = np.random.default_rng(max_order)
    for preset in PRESETS.values():
        for _ in range(25):
            params = ResumParams(
                nbar=rng.uniform(10.0, 100.0),
                phase=rng.uniform(0.0, 2.0 * math.pi), max_order=max_order,
                damping=DampingParams(kappa=preset.kappa,
                                      n_thermal=rng.uniform(0.0, 0.3)),
                g=preset.g)
            ts = rng.uniform(0.0, 80.0, 4) / preset.g
            assert np.array_equal(resummed_p_excited(params, ts),
                                  resummed_loop_reference(params, ts))
            assert np.array_equal(resummed_p_excited(params, ts[0]),
                                  resummed_loop_reference(params, ts[0]))


def test_resummed_starts_at_one():
    assert resummed_p_excited(_params(), 0.0) == pytest.approx(1.0, abs=1e-10)


def test_resummed_matches_direct_sum():
    params = _params(max_order=3)
    config = ExperimentConfig(
        jc=JCParams(g=BENSON["g"]),
        damping=params.damping,
        initial_field=CatSpec(intensity=49.0),
    )
    gts = np.linspace(0.0, 50.0, 501)
    ts = gts / params.g
    direct = p_excited(config, ts)
    image = resummed_p_excited(params, ts)
    # regression bound frozen from the first comparison; the deviation is
    # dominated by the stationary-phase error of the half-order wave at the
    # gt ~ 22 revival (about 15% of its amplitude at nbar = 49)
    assert np.abs(direct - image).max() < 0.075


def test_resummed_order_convergence():
    gts = np.linspace(0.0, 50.0, 501)
    ts = gts / BENSON["g"]
    p3 = resummed_p_excited(_params(max_order=3), ts)
    p6 = resummed_p_excited(_params(max_order=6), ts)
    assert np.abs(p3 - p6).max() < 1e-3


def test_quarter_phase_drops_half_order_waves():
    # cos(pi/2) = 0: the result must be the coherent-state resummation
    gts = np.linspace(0.0, 50.0, 200)
    ts = gts / BENSON["g"]
    cat = resummed_p_excited(_params(phase=math.pi / 2), ts)
    params = _params()
    direct_coherent = (
        0.5 * np.exp(-2.0 * params.damping.kappa * params.damping.n_thermal * ts)
        + 0.5 * np.exp(-2.0 * params.damping.kappa * ts
                       * (2.0 * 0.1 * 50.0 + 49.5))
        * (_collapse(params, gts)
           + sum(_revival(params, nu, gts) for nu in (1.0, 2.0, 3.0)))
    )
    assert np.allclose(cat, direct_coherent, atol=1e-12)


def test_phase_enters_through_cosine_only():
    ts = np.linspace(0.0, 50.0, 40) / BENSON["g"]
    a = resummed_p_excited(_params(phase=1.0), ts)
    b = resummed_p_excited(_params(phase=-1.0), ts)
    assert np.array_equal(a, b)


def test_small_nbar_warns():
    with pytest.warns(ValidityWarning) as record:
        _params(nbar=3.0)
    assert record[0].filename == __file__


def test_strong_damping_warns():
    params = ResumParams(
        nbar=49.0, phase=0.0, max_order=3,
        damping=DampingParams(kappa=100.0, n_thermal=0.1), g=36000.0,
    )
    with pytest.warns(ValidityWarning):
        resummed_p_excited(params, 1e-4)


@pytest.mark.parametrize("field", ["nbar", "phase", "g"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_resum_params_reject_non_finite(field, value):
    with pytest.raises(ValueError):
        dataclasses.replace(_params(), **{field: value})


@pytest.mark.parametrize("t", [math.nan, math.inf, [0.0, math.nan]])
def test_resummed_p_excited_rejects_non_finite_time(t):
    with pytest.raises(ValueError):
        resummed_p_excited(_params(), t)


@pytest.mark.parametrize("order", [2.5, 3.0, math.nan, math.inf, True, 0,
                                   -1, np.int64(0), "3"])
def test_resum_params_reject_non_integer_or_small_order(order):
    with pytest.raises(ValueError):
        _params(max_order=order)


def test_resum_params_accept_numpy_integer_order():
    ts = np.linspace(0.0, 50.0, 7) / BENSON["g"]
    assert np.array_equal(resummed_p_excited(_params(max_order=np.int64(3)), ts),
                          resummed_p_excited(_params(max_order=3), ts))
