import math

import numpy as np
import pytest

from catcavity import (
    CatSpec,
    DampingParams,
    ExperimentConfig,
    JCParams,
    PRESETS,
    UnsupportedRegimeError,
    ValidityWarning,
    coherent_distribution,
    conditioned_field,
    decoherence_time,
    default_truncation,
    eta_correlation,
    p_excited,
    p_joint,
    revival_curves,
)
from catcavity import observables
from catcavity.damping import f_star, f_star_operator, unitarity_ground
from references import rate_arrays


@pytest.fixture
def benson_config():
    return ExperimentConfig(
        jc=JCParams(g=36000.0),
        damping=DampingParams(kappa=8.33, n_thermal=0.1),
        initial_field=CatSpec(intensity=9.0),
    )


@pytest.fixture
def coherent_config():
    return ExperimentConfig(
        jc=JCParams(g=36000.0),
        damping=DampingParams(kappa=8.33, n_thermal=0.1),
        initial_field=coherent_distribution(9.0, default_truncation(9.0)),
    )


def test_p_excited_starts_at_one(benson_config):
    assert p_excited(benson_config, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_p_excited_stays_in_unit_interval(benson_config):
    ts = np.linspace(0.0, 0.2, 50)
    vals = p_excited(benson_config, ts)
    assert np.all(vals >= 0.0)
    assert np.all(vals <= 1.0)


def test_p_excited_undamped_limit_matches_bare_sum():
    # with alpha_n t ~ 1e-7 the damping factors are inert and the bare
    # collapse-revival sum must come out
    config = ExperimentConfig(
        jc=JCParams(g=36000.0),
        damping=DampingParams(kappa=1e-4),
        initial_field=coherent_distribution(9.0, default_truncation(9.0)),
    )
    probs = config.distribution().probs
    n = np.arange(probs.size)
    g = config.jc.g
    t = 2.0 / g
    bare = 0.5 + 0.5 * np.sum(probs * np.cos(2.0 * g * t * np.sqrt(n + 1.0)))
    assert p_excited(config, t) == pytest.approx(bare, abs=1e-6)


def test_p_excited_scalar_and_array_agree(benson_config):
    ts = np.array([1e-5, 5e-5, 2e-4])
    arr = p_excited(benson_config, ts)
    for i, t in enumerate(ts):
        assert arr[i] == p_excited(benson_config, float(t))


def test_conditioned_weights_partition_unity(benson_config):
    for gt in (1.0, 7.0, 20.0):
        t = gt / benson_config.jc.g
        plus = conditioned_field(benson_config, t, "+")
        minus = conditioned_field(benson_config, t, "-")
        assert plus.sum() + minus.sum() == pytest.approx(1.0, abs=1e-9)
        assert plus.sum() == pytest.approx(p_excited(benson_config, t),
                                           abs=1e-9)


def test_conditioned_field_is_nonnegative(benson_config):
    t = 13.0 / benson_config.jc.g
    for outcome in ("+", "-"):
        cond = conditioned_field(benson_config, t, outcome)
        assert np.all(cond >= 0.0)


def test_conditioned_ground_outcome_at_t_zero(benson_config):
    # at t = 0 the atom is excited with certainty
    cond = conditioned_field(benson_config, 0.0, "-")
    assert cond.sum() == pytest.approx(0.0, abs=1e-12)


def test_joint_at_coincident_times_collapses(benson_config):
    for gt in (2.0, 11.0, 21.0):
        t = gt / benson_config.jc.g
        assert p_joint(benson_config, t, t, "+", "+") == pytest.approx(
            p_excited(benson_config, t), abs=1e-9
        )


def test_joint_probabilities_sum_to_one(benson_config):
    t_a = 5.0 / benson_config.jc.g
    t_b = 12.0 / benson_config.jc.g
    total = sum(
        p_joint(benson_config, t_a, t_b, s1, s2)
        for s1 in "+-" for s2 in "+-"
    )
    assert total == pytest.approx(1.0, abs=1e-9)


def test_joint_marginalizes_to_single_atom(benson_config):
    t_a = 4.0 / benson_config.jc.g
    t_b = 9.0 / benson_config.jc.g
    for s1 in "+-":
        marginal = (p_joint(benson_config, t_a, t_b, s1, "+")
                    + p_joint(benson_config, t_a, t_b, s1, "-"))
        expected = conditioned_field(benson_config, t_a, s1).sum()
        assert marginal == pytest.approx(expected, abs=1e-12)


def test_joint_rejects_reversed_times(benson_config):
    with pytest.raises(ValueError):
        p_joint(benson_config, 1e-4, 5e-5, "+", "+")


def test_eta_undefined_at_zero_time(benson_config):
    assert eta_correlation(benson_config, 0.0) is None


def test_eta_defined_midway(benson_config):
    t = 10.0 / benson_config.jc.g
    eta = eta_correlation(benson_config, t)
    assert eta is not None
    assert -1.0 <= eta <= 1.0


def test_eta_cat_revival_signature():
    # near the cat prerevival the two conditionals separate strongly for the
    # cat but not for a coherent field of the same size
    jc = JCParams(g=36000.0)
    damping = DampingParams(kappa=8.33, n_thermal=0.1)
    cat = ExperimentConfig(jc=jc, damping=damping,
                           initial_field=CatSpec(intensity=49.0))
    coh = ExperimentConfig(
        jc=jc, damping=damping,
        initial_field=coherent_distribution(49.0, default_truncation(49.0)))
    gts = np.arange(19.0, 25.0, 0.2)
    eta_cat = max(abs(eta_correlation(cat, gt / jc.g)) for gt in gts)
    eta_coh = max(abs(eta_correlation(coh, gt / jc.g)) for gt in gts)
    assert eta_cat > 0.03
    assert eta_coh < 0.01


def test_decoherence_time_scaling(benson_config):
    td = decoherence_time(benson_config)
    nbar = benson_config.mean_photons()
    expected = benson_config.damping.t_cav / (nbar * 1.2)  # 1 + 2 n_b
    assert td == pytest.approx(expected)


def test_decoherence_time_shrinks_with_nbar():
    jc = JCParams(g=36000.0)
    damping = DampingParams(kappa=8.33)
    small = ExperimentConfig(jc=jc, damping=damping,
                             initial_field=CatSpec(intensity=4.0))
    large = ExperimentConfig(jc=jc, damping=damping,
                             initial_field=CatSpec(intensity=16.0))
    assert decoherence_time(large) < decoherence_time(small)


def test_detuned_config_rejected():
    config = ExperimentConfig(
        jc=JCParams(g=36000.0, detuning=1000.0),
        damping=DampingParams(kappa=8.33),
        initial_field=CatSpec(intensity=4.0),
    )
    with pytest.raises(UnsupportedRegimeError):
        p_excited(config, 1e-5)


def test_secular_ratio_warning():
    with pytest.warns(ValidityWarning) as record:
        ExperimentConfig(
            jc=JCParams(g=24000.0),
            damping=DampingParams(kappa=2500.0, n_thermal=0.1),
            initial_field=CatSpec(intensity=3.3),
        )
    assert record[0].filename == __file__


def test_truncation_resolved_from_field(benson_config, coherent_config):
    assert benson_config.truncation == default_truncation(
        benson_config.mean_photons()
    )
    assert coherent_config.truncation == default_truncation(9.0)
    with pytest.raises(ValueError):
        ExperimentConfig(jc=coherent_config.jc,
                         damping=coherent_config.damping,
                         initial_field=coherent_distribution(4.0, 32),
                         truncation=10)


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_p_excited_rejects_non_finite_time(benson_config, t):
    with pytest.raises(ValueError):
        p_excited(benson_config, t)


@pytest.fixture(scope="module")
def fig1_grid():
    """The fig1 cat configuration (nbar = 49, n_b = 0.1) and its time axis."""
    preset = PRESETS["benson97"]
    config = ExperimentConfig(
        jc=preset.jc(),
        damping=DampingParams(kappa=preset.kappa, n_thermal=0.1),
        initial_field=CatSpec(intensity=49.0, phase=1.7),
    )
    return config, np.arange(0.0, 50.0 + 0.05, 0.1) / preset.g


def test_p_excited_array_equals_scalar_calls_on_fig1_grid(fig1_grid):
    config, ts = fig1_grid
    arr = p_excited(config, ts)
    assert all(arr[i] == p_excited(config, t) for i, t in enumerate(ts))


def test_p_joint_array_equals_scalar_calls_on_fig1_grid(fig1_grid):
    config, ts = fig1_grid
    for s1, s2 in (("+", "+"), ("-", "-")):
        arr = p_joint(config, ts, 2.0 * ts, s1, s2)
        assert arr.shape == ts.shape
        assert all(arr[i] == p_joint(config, t, 2.0 * t, s1, s2)
                   for i, t in enumerate(ts))


def test_eta_array_equals_scalar_calls_on_fig1_grid(fig1_grid):
    config, ts = fig1_grid
    arr = eta_correlation(config, ts)
    scalar = [eta_correlation(config, t) for t in ts]
    assert np.isnan(arr[0]) and scalar[0] is None  # P_- = 0 at t = 0
    assert all(np.isnan(a) if s is None else a == s
               for a, s in zip(arr, scalar))


def test_p_joint_broadcasts_scalar_first_passage(benson_config):
    t_a = 5.0 / benson_config.jc.g
    t_b = np.array([5.0, 9.0, 12.0]) / benson_config.jc.g
    arr = p_joint(benson_config, t_a, t_b, "+", "-")
    assert list(arr) == [p_joint(benson_config, t_a, t, "+", "-") for t in t_b]


def test_p_joint_rejects_reversed_times_in_array(benson_config):
    with pytest.raises(ValueError):
        p_joint(benson_config, np.array([1e-5, 1e-4]), 5e-5, "+", "+")


def _per_passage_rates(config):
    """The passage with alpha_n (from `rate_arrays`) and sqrt(n+1) rebuilt
    on every passage, as before they were computed once per call."""
    def run(probs, t):
        n = np.arange(probs.size)
        alpha, _, _ = rate_arrays(config.damping, probs.size - 1)
        osc = (np.exp(-alpha * t)
               * np.cos(2.0 * config.jc.g * t * np.sqrt(n + 1.0)) * probs)
        f = f_star(probs, config.damping, t)
        return observables._Passage(probs, f, osc, unitarity_ground(probs, f))

    return config.distribution().probs, run


@pytest.mark.parametrize("nb", [0.0, 0.13])
def test_passage_bit_identical_to_per_passage_rates(monkeypatch, nb):
    # the fig1 grid and fields: the figure CSVs stay byte-identical
    preset = PRESETS["benson97"]
    ts = np.arange(0.0, 50.0 + 0.05, 0.1) / preset.g
    damping = DampingParams(kappa=preset.kappa, n_thermal=nb)
    for field in (coherent_distribution(49.0, default_truncation(49.0)),
                  CatSpec(intensity=49.0, phase=1.7)):
        config = ExperimentConfig(jc=preset.jc(), damping=damping,
                                  initial_field=field)

        def curves():
            return (p_excited(config, ts),
                    p_joint(config, ts, 2.0 * ts, "+", "+"),
                    eta_correlation(config, ts),
                    *revival_curves(config, ts))

        got = curves()
        with monkeypatch.context() as patch:
            patch.setattr(observables, "_passages", _per_passage_rates)
            expected = curves()
        for a, b in zip(got, expected):
            assert np.array_equal(a, b, equal_nan=True)
        # revival_curves is (p_excited, p_joint(t, 2t, "+", "+"))
        assert np.array_equal(got[3], expected[0])
        assert np.array_equal(got[4], expected[1])


def test_one_operator_build_per_time(monkeypatch, fig1_grid):
    config, ts = fig1_grid
    # 20 odd multiples of the step: no delay 3t - t equals the next time
    ts = ts[1:41:2]
    builds = []

    def counted(size, damping, t):
        builds.append(t)
        return f_star_operator(size, damping, t)

    monkeypatch.setattr(observables, "f_star_operator", counted)
    for call, per_time in ((lambda: eta_correlation(config, ts), 1),
                           (lambda: revival_curves(config, ts), 1),
                           (lambda: p_joint(config, ts, 3.0 * ts, "+", "-"),
                            2)):
        builds.clear()
        call()
        assert len(builds) == per_time * ts.size
