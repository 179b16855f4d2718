import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catcavity import (
    CatSpec,
    DegenerateCatError,
    PhotonDistribution,
    TruncationError,
    cat_distribution,
    cat_mean_photons,
    coherent_distribution,
    default_truncation,
)


def test_coherent_distribution_is_poisson():
    d = coherent_distribution(4.0, 40)
    n = np.arange(41)
    expected = np.exp(-4.0) * 4.0**n / np.array(
        [math.factorial(int(k)) for k in n], dtype=float
    )
    assert np.allclose(d.probs, expected, rtol=1e-12)


def test_coherent_vacuum():
    d = coherent_distribution(0.0, 32)
    assert d.probs[0] == 1.0
    assert d.probs[1:].sum() == 0.0


def test_even_cat_kills_odd_levels():
    d = cat_distribution(CatSpec(intensity=3.0, phase=0.0), 40)
    assert np.all(d.probs[1::2] == 0.0)
    assert d.probs[0] > 0.0


def test_odd_cat_kills_even_levels():
    d = cat_distribution(CatSpec(intensity=3.0, phase=math.pi), 40)
    assert np.all(d.probs[0::2] == 0.0)


def test_quarter_phase_cat_is_poisson():
    # cos(pi/2) = 0 removes the parity weighting entirely
    cat = cat_distribution(CatSpec(intensity=5.0, phase=math.pi / 2), 40)
    coh = coherent_distribution(5.0, 40)
    assert np.allclose(cat.probs, coh.probs, atol=1e-15)


def test_degenerate_cat_rejected():
    with pytest.raises(DegenerateCatError):
        cat_distribution(CatSpec(intensity=0.0, phase=math.pi), 32)


def test_near_degenerate_cat_builds_or_is_refused():
    # near phi = pi the normalization cancels to rounding; each cat must
    # either build or raise DegenerateCatError, never a ValueError or
    # TruncationError from PhotonDistribution's checks
    offsets = [0.0] + [s * 10.0**e for e in range(-9, -1) for s in (1, -1)]
    for offset in offsets:
        for intensity in np.logspace(-13, -1, 121):
            spec = CatSpec(intensity=float(intensity), phase=math.pi + offset)
            try:
                d = cat_distribution(spec, 32)
            except DegenerateCatError:
                continue
            assert abs(d.probs.sum() - 1.0) <= 1e-12


def test_cat_mean_at_zero_intensity():
    # even cat at zero intensity is the vacuum
    assert cat_mean_photons(CatSpec(intensity=0.0, phase=0.0)) == 0.0


def test_cat_mean_matches_distribution():
    spec = CatSpec(intensity=6.0, phase=1.3)
    d = cat_distribution(spec, 60)
    assert cat_mean_photons(spec) == pytest.approx(d.mean(), abs=1e-9)


def test_even_cat_mean_is_tanh_weighted():
    spec = CatSpec(intensity=2.0, phase=0.0)
    assert cat_mean_photons(spec) == pytest.approx(2.0 * math.tanh(2.0))


def test_branch_overlap():
    # <z|-z> = sum_n (-1)^n p_n over the Poisson p_n of |z> is e^{-2|z|^2},
    # the overlap the cat normalization 2 + 2 cos(phi) <z|-z> carries
    for intensity in (0.0, 3.0):
        probs = coherent_distribution(intensity, 40).probs
        overlap = probs @ (-1.0) ** np.arange(41)
        assert overlap == pytest.approx(math.exp(-2.0 * intensity), rel=1e-12)
        assert CatSpec(intensity).normalization == pytest.approx(
            2.0 + 2.0 * overlap, rel=1e-12)


def test_phase_reduced_modulo_two_pi():
    a = cat_distribution(CatSpec(intensity=4.0, phase=0.7), 40)
    b = cat_distribution(CatSpec(intensity=4.0, phase=0.7 + 2.0 * math.pi), 40)
    assert np.allclose(a.probs, b.probs, atol=5e-15)


def test_truncation_guard_fires():
    with pytest.raises(TruncationError):
        coherent_distribution(30.0, 31)


def test_default_truncation_floor():
    assert default_truncation(0.0) == 32
    assert default_truncation(49.0) >= 119


def test_distribution_rejects_mass_above_one():
    p = np.zeros(33)
    p[0], p[1] = 0.9, 0.2
    with pytest.raises(ValueError):
        PhotonDistribution(p)


@pytest.mark.parametrize("probs", [np.array([math.nan, 1.0]),
                                   np.eye(2) / 2])
def test_distribution_rejects_non_finite_or_non_vector(probs):
    with pytest.raises(ValueError):
        PhotonDistribution(probs)


def test_distribution_is_read_only():
    d = coherent_distribution(1.0, 32)
    with pytest.raises(ValueError):
        d.probs[0] = 0.5


@given(
    intensity=st.floats(min_value=0.01, max_value=30.0),
    phase=st.floats(min_value=-10.0, max_value=10.0),
)
@settings(max_examples=60, deadline=None)
def test_cat_distribution_properties(intensity, phase):
    spec = CatSpec(intensity=intensity, phase=phase)
    try:
        spec.refuse_degenerate()
    except DegenerateCatError:
        return
    d = cat_distribution(spec, default_truncation(intensity))
    assert np.all(d.probs >= 0.0)
    assert d.probs.sum() == pytest.approx(1.0, abs=1e-9)


@given(intensity=st.floats(min_value=0.0, max_value=40.0))
@settings(max_examples=40, deadline=None)
def test_coherent_mean_matches_intensity(intensity):
    d = coherent_distribution(intensity, default_truncation(intensity))
    assert d.mean() == pytest.approx(intensity, abs=1e-7)


def test_cat_spec_rejects_non_finite():
    with pytest.raises(ValueError):
        CatSpec(intensity=math.nan)
