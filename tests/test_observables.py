import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catcavity import (
    CatSpec,
    DampingParams,
    ExperimentConfig,
    JCParams,
    PRESETS,
    TruncationError,
    ValidityWarning,
    cat_distribution,
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
from catcavity.damping import KERNEL_CHUNK, _f_star_chunks
from references import eta_reference, passage_reference


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


_GRID = np.full((2, 2), 1e-5)


@pytest.mark.parametrize("call, rule", [
    (lambda c: p_excited(c, _GRID), "1-d"),
    (lambda c: eta_correlation(c, _GRID), "1-d"),
    (lambda c: revival_curves(c, _GRID), "1-d"),
    (lambda c: p_joint(c, _GRID, 2e-5, "+", "+"), "1-d"),
    (lambda c: conditioned_field(c, np.array([1e-5, 2e-5]), "+"), "one time"),
], ids=["p_excited", "eta_correlation", "revival_curves", "p_joint",
        "conditioned_field"])
def test_times_beyond_the_accepted_shape_rejected(benson_config, call, rule):
    with pytest.raises(ValueError, match=rule):
        call(benson_config)


@pytest.mark.parametrize("truncation", [-3, 40.5, True, "40"])
def test_malformed_truncation_rejected(benson_config, truncation):
    with pytest.raises(ValueError, match="truncation must be 0"):
        dataclasses.replace(benson_config, truncation=truncation)


def test_truncation_accepts_numpy_integers_and_checks_mass_at_build(
        benson_config):
    config = dataclasses.replace(benson_config, truncation=np.int64(60))
    assert config.truncation == config.distribution().truncation == 60
    with pytest.raises(TruncationError):
        dataclasses.replace(benson_config, truncation=10)


def test_cat_distribution_built_once_per_config(monkeypatch, benson_config):
    calls = []

    def counted(spec, truncation=None):
        calls.append(truncation)
        return cat_distribution(spec, truncation)

    monkeypatch.setattr(observables, "cat_distribution", counted)
    config = dataclasses.replace(benson_config)
    ts = np.array([1e-5, 2e-4])
    p_excited(config, ts)
    eta_correlation(config, ts)
    revival_curves(config, ts)
    assert calls == [config.truncation]
    # the stored distribution is not a field: ==, hash and repr ignore it
    assert config == benson_config and hash(config) == hash(benson_config)
    assert "_distribution" not in repr(config)


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


def _figure_pair(preset, nb, truncations=(0, 0)):
    """The coherent and cat configs of one figure (phi = 1.7) and its axis."""
    damping = DampingParams(kappa=preset.kappa, n_thermal=nb)
    fields = (coherent_distribution(preset.nbar,
                                    default_truncation(preset.nbar)),
              CatSpec(intensity=preset.nbar, phase=1.7))
    configs = [ExperimentConfig(jc=preset.jc(), damping=damping,
                                initial_field=field, truncation=trunc)
               for field, trunc in zip(fields, truncations)]
    ts = np.arange(0.0, preset.gt_max + 0.05, 0.1) / preset.g
    return configs, ts


@functools.cache
def _loop_reference(name, nb):
    """`_figure_pair(PRESETS[name], nb)` and, per config, its curves from
    one f_star per passage, time and field, with alpha_n from rate_arrays
    (tests/references.py `passage_reference`): P_+ under "p_plus",
    P(s1, s2) of a second atom at k t under (k, s1, s2), and eta."""
    configs, ts = _figure_pair(PRESETS[name], nb)
    curves = []
    for config in configs:
        refs = [passage_reference(config, t, (2.0 * t, 3.0 * t)) for t in ts]
        curve = {"p_plus": np.array([p for p, _ in refs]),
                 "eta": np.array([eta_reference(p, o[0]["+"][1],
                                                o[0]["-"][1])
                                  for p, o in refs])}
        for i, k in enumerate((2.0, 3.0)):
            for s1 in "+-":
                weight, plus = np.array([o[i][s1] for _, o in refs]).T
                curve[k, s1, "+"], curve[k, s1, "-"] = plus, weight - plus
        curves.append(curve)
    return configs, ts, curves


@pytest.mark.filterwarnings("ignore::catcavity.ValidityWarning")
@pytest.mark.parametrize("nb", [0.0, 0.13])
@pytest.mark.parametrize("name", ["benson97", "brune96"])
def test_observables_bit_identical_to_loop_reference(name, nb):
    # the fig1 (benson97) and fig3 (both presets) grids and fields
    configs, ts, curves = _loop_reference(name, nb)
    for config, ref in zip(configs, curves):
        assert np.array_equal(p_excited(config, ts), ref["p_plus"])
        for k in (2.0, 3.0):
            for s1 in "+-":
                for s2 in "+-":
                    assert np.array_equal(
                        p_joint(config, ts, k * ts, s1, s2), ref[k, s1, s2])
        p_plus_rc, p_plusplus_rc = revival_curves(config, ts)
        assert np.array_equal(p_plus_rc, ref["p_plus"])
        assert np.array_equal(p_plusplus_rc, ref[2.0, "+", "+"])
        assert np.array_equal(eta_correlation(config, ts), ref["eta"],
                              equal_nan=True)


def _same(value, reference):
    """`value` equals `reference` bit for bit, None and NaN counting as
    one undefined entry."""
    value = math.nan if value is None else value
    return np.array_equal(value, reference, equal_nan=True)


@pytest.mark.filterwarnings("ignore::catcavity.ValidityWarning")
@given(preset=st.sampled_from(sorted(PRESETS)),
       nbars=st.lists(st.floats(min_value=1.0, max_value=100.0), min_size=2,
                      max_size=2),
       phi=st.floats(min_value=0.0, max_value=2.0 * math.pi),
       nb=st.floats(min_value=0.0, max_value=0.3),
       gts=st.lists(st.floats(min_value=0.0, max_value=70.0), min_size=1,
                    max_size=3))
@settings(max_examples=25, deadline=None)
def test_sweep_domain_bit_identical_to_loop_reference(preset, nbars, phi,
                                                      nb, gts):
    # the sweep's domain, N = 32 to 201: single-config calls from an array
    # and from scalars, and a stacked call of two configs that may hold
    # two truncations, against one f_star per passage, time and field
    preset = PRESETS[preset]
    damping = DampingParams(kappa=preset.kappa, n_thermal=nb)
    configs = [ExperimentConfig(jc=preset.jc(), damping=damping,
                                initial_field=CatSpec(intensity=nbar,
                                                      phase=phi))
               for nbar in nbars]
    ts = np.array(gts) / preset.g
    refs = [[passage_reference(config, t, (2.0 * t,)) for t in ts]
            for config in configs]
    p_plus = np.array([[p for p, _ in row] for row in refs])
    joint = np.array([[o[0]["+"][1] for _, o in row] for row in refs])
    eta = np.array([[eta_reference(p, o[0]["+"][1], o[0]["-"][1])
                     for p, o in row] for row in refs])
    config = configs[0]
    assert _same(p_excited(config, ts), p_plus[0])
    for i, t in enumerate(ts.tolist()):
        assert _same(p_excited(config, t), p_plus[0, i])
        assert _same(eta_correlation(config, t), eta[0, i])
        assert _same(p_joint(config, t, 2.0 * t, "+", "+"), joint[0, i])
    stacked_p, stacked_joint = revival_curves(configs, ts)
    assert _same(stacked_p, p_plus) and _same(stacked_joint, joint)
    assert _same(eta_correlation(configs, ts), eta)


#: The loop reference's name of each curve of `_curves`.
_CURVE_KEYS = ("p_plus", (2.0, "+", "+"), "eta", "p_plus", (2.0, "+", "-"),
               (2.0, "-", "+"))


def _curves(configs, ts):
    return (*revival_curves(configs, ts), eta_correlation(configs, ts),
            p_excited(configs, ts),
            *(p_joint(configs, ts, 2.0 * ts, s1, s2)
              for s1, s2 in (("+", "-"), ("-", "+"))))


def _assert_rows_equal(configs, ts, singles):
    """Each row of the stacked `_curves` of `configs` equals the curves of
    its config in `singles`."""
    stacked = _curves(configs, ts)
    assert all(rows.shape == (2, ts.size) for rows in stacked)
    for row, alone in enumerate(singles):
        for rows, curve in zip(stacked, alone):
            assert np.array_equal(rows[row], curve, equal_nan=True)


@pytest.mark.filterwarnings("ignore::catcavity.ValidityWarning")
@pytest.mark.parametrize("nb", [0.0, 0.13])
@pytest.mark.parametrize("name", ["benson97", "brune96"])
def test_stacked_rows_equal_single_config_calls(name, nb):
    # the fig1 (benson97) and fig3 (both presets) grids and fields, against
    # the loop reference, which each single-config call equals bit for bit
    configs, ts, curves = _loop_reference(name, nb)
    _assert_rows_equal(configs, ts, [[ref[key] for key in _CURVE_KEYS]
                                     for ref in curves])


def test_stacked_rows_of_different_truncation_equal_single_calls():
    configs, ts = _figure_pair(PRESETS["benson97"], 0.1, (120, 150))
    assert [config.truncation for config in configs] == [120, 150]
    ts = ts[::10]
    _assert_rows_equal(configs, ts,
                       [_curves(config, ts) for config in configs])


def test_stacked_scalar_time_gives_one_value_per_config():
    configs, ts = _figure_pair(PRESETS["benson97"], 0.1)
    p_plus, p_plusplus = revival_curves(configs, ts[220])
    eta = eta_correlation(configs, ts[220])
    assert p_plus.shape == p_plusplus.shape == eta.shape == (2,)
    assert list(eta) == [eta_correlation(config, ts[220])
                         for config in configs]
    assert np.isnan(eta_correlation(configs, 0.0)).all()


@pytest.mark.parametrize("other", [
    {"jc": JCParams(g=24000.0)},
    {"damping": DampingParams(kappa=8.33, n_thermal=0.2)},
])
def test_stacked_configs_must_share_jc_and_damping(other):
    configs, ts = _figure_pair(PRESETS["benson97"], 0.1)
    configs[1] = dataclasses.replace(configs[1], **other)
    for call in (revival_curves, eta_correlation, p_excited):
        with pytest.raises(ValueError):
            call(configs, ts[:3])


def test_one_operator_build_per_time(monkeypatch, fig1_grid):
    config, ts = fig1_grid
    # 20 odd multiples of the step, three chunks at 121 levels: no delay
    # 3t - t equals its t
    ts = ts[1:41:2]
    coherent = dataclasses.replace(
        config, initial_field=coherent_distribution(49.0, config.truncation))
    builds = []

    def counted(size, damping, times):
        for chunk, kernels, decay in _f_star_chunks(size, damping, times):
            builds.extend(times[chunk].tolist())  # one kernel per time
            yield chunk, kernels, decay

    monkeypatch.setattr(observables, "_f_star_chunks", counted)
    for call, per_time in ((lambda: eta_correlation(config, ts), 1),
                           (lambda: revival_curves(config, ts), 1),
                           (lambda: p_joint(config, ts, 3.0 * ts, "+", "-"),
                            2),
                           # one build per time for the coherent field and
                           # the cat together, not one each
                           (lambda: eta_correlation([coherent, config], ts),
                            1),
                           (lambda: revival_curves([coherent, config], ts),
                            1),
                           (lambda: p_excited([coherent, config], ts), 1)):
        builds.clear()
        call()
        assert len(builds) == len(set(builds)) == per_time * ts.size


def _assert_rows_equal_single_time_calls(configs, ts):
    def curves(configs, t):
        return (*revival_curves(configs, t), eta_correlation(configs, t),
                p_excited(configs, t),
                p_joint(configs, t, 2.0 * t, "-", "+"),
                p_joint(configs, t, 3.0 * t, "+", "-"))

    stacked = curves(configs, ts)
    for row, config in enumerate(configs):
        for i, t in enumerate(ts):
            for rows, alone in zip(stacked, curves(config, t)):
                alone = math.nan if alone is None else alone
                assert np.array_equal(rows[row, i], alone, equal_nan=True)


def _chunked_grid(*sizes):
    """More than two chunks of times at the largest of `sizes`, with t = 0
    and t = 5e-324 side by side inside a chunk of every size."""
    step = min(KERNEL_CHUNK // size**2 for size in sizes)
    ts = np.arange(1.0, 2 * step + 4.0) * 0.7 / 36000.0
    ts[step + 1], ts[step + 2] = 0.0, 5e-324
    return ts


@pytest.mark.parametrize("kappa", [8.33, 0.1])
@pytest.mark.parametrize("nbar, size", [(49.0, 121), (100.0, 202)])
def test_chunked_rows_equal_single_time_calls(nbar, size, kappa):
    # at kappa = 0.1, 2 kappa (n_b + 1) 5e-324 rounds to 0: that time's
    # passage is the identity; at 8.33 its kernel is built
    config = ExperimentConfig(
        jc=JCParams(g=36000.0),
        damping=DampingParams(kappa=kappa, n_thermal=0.13),
        initial_field=CatSpec(intensity=nbar, phase=1.7))
    assert config.truncation + 1 == size
    _assert_rows_equal_single_time_calls([config], _chunked_grid(size))


def test_chunked_stack_of_two_truncations_equals_single_time_calls():
    configs, _ = _figure_pair(PRESETS["benson97"], 0.1, (120, 150))
    _assert_rows_equal_single_time_calls(configs, _chunked_grid(121, 151))
