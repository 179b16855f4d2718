import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.special import gammaln

from catcavity import (
    CatSpec,
    DampingParams,
    ExperimentConfig,
    JCParams,
    ResumParams,
    ValidityWarning,
    cat_distribution,
    coherent_distribution,
    doublet_decay_rate,
    f_star,
)
from catcavity import damping as damping_module
from catcavity.cli import main
from catcavity.damping import (KERNEL_CHUNK, NEGATIVE_CLIP, _f_star_apply,
                               _f_star_chunks, f_star_ground)
from catcavity.presets import PRESETS
from references import (
    f_star_ground_double_sum,
    rate_arrays,
    residual_diagnostics,
)


def _tridiagonal_reference(probs, damping, t):
    """Integrate the modified dressed-diagonal recurrence directly."""
    alpha, beta, _ = rate_arrays(damping, probs.size - 1)
    gamma = 2.0 * damping.kappa * damping.n_thermal * (np.arange(probs.size) + 0.5)

    def rhs(_t, f):
        up = np.append(f[1:], 0.0)
        return -alpha * f + beta * up + gamma * f

    sol = solve_ivp(rhs, (0.0, t), probs.astype(float), rtol=1e-11, atol=1e-13)
    return sol.y[:, -1]


def test_rate_coefficients_zero_temperature():
    d = DampingParams(kappa=2.0)
    alpha, beta, gamma = (rates[3] for rates in rate_arrays(d, 3))
    assert alpha == pytest.approx(2.0 * 2.0 * 3.5)
    assert beta == pytest.approx(2.0 * 2.0 * 4.5)
    assert gamma == 0.0


def test_rate_coefficients_ground_sector():
    d = DampingParams(kappa=1.5, n_thermal=0.2)
    alpha, beta, gamma = rate_arrays(d, -1)
    assert alpha == pytest.approx(2.0 * 1.5 * 0.2)
    assert beta == pytest.approx(2.0 * 1.5 * 1.2)
    assert gamma == 0.0


def test_rate_flow_balance():
    # alpha_n = beta_{n-1} + gamma_{n+1} for n >= 1 keeps total mass flowing
    d = DampingParams(kappa=3.0, n_thermal=0.3)
    alpha, beta, gamma = rate_arrays(d, 10)
    for n in range(1, 10):
        assert alpha[n] == pytest.approx(beta[n - 1] + gamma[n + 1])


def test_rate_arrays_reject_truncation_below_ground():
    with pytest.raises(ValueError):
        rate_arrays(DampingParams(kappa=1.0), -2)


def _f_star_direct(probs, damping, t):
    """The direct F*_n evaluation that rebuilds the log kernel on every call."""
    if t == 0.0:
        return probs.copy()
    k, nb = damping.kappa, damping.n_thermal
    n = np.arange(probs.size, dtype=float)
    x = -np.expm1(-2.0 * k * (nb + 1.0) * t)
    decay = np.exp(-2.0 * k * t * ((n + 0.5) * (nb + 1.0) + nb))
    jj = n[None, :]
    nn = n[:, None]
    diff = jj - nn
    log_x = math.log(x)
    log_terms = np.where(
        diff > 0,
        gammaln(jj + 1.5) - gammaln(nn + 1.5) + diff * log_x - gammaln(diff + 1.0),
        0.0,
    )
    kernel = np.where(diff >= 0, np.exp(log_terms), 0.0)
    out = decay * (kernel @ probs)
    assert not np.any(out < -NEGATIVE_CLIP)
    return np.clip(out, 0.0, None)


@pytest.mark.parametrize("order", [(202, 121, 33), (33, 121, 202)])
def test_f_star_bit_identical_to_direct_kernel(monkeypatch, order):
    # the packed table is grown in both orders: largest first (later calls
    # take a prefix of it) and smallest first (every call grows it)
    monkeypatch.setattr(damping_module, "_PACKED_TABLE",
                        (np.empty(0),) * 3 + (np.empty((0, 0), dtype=bool),))
    preset = PRESETS["benson97"]
    nbar_at = {33: 4.0, 121: 49.0, 202: 100.0}  # N = default truncation + 1
    for size in order:
        p = coherent_distribution(nbar_at[size], size - 1).probs
        for nb in (0.0, 0.2):
            d = DampingParams(kappa=preset.kappa, n_thermal=nb)
            for gt in (0.5, 44.0, 4000.0):
                t = gt / preset.g
                assert np.array_equal(f_star(p, d, t),
                                      _f_star_direct(p, d, t))
    *packed, lower = damping_module._PACKED_TABLE
    assert all(part.size == 202 * 203 // 2 for part in packed)
    assert lower.shape == (202, 202)


def test_f_star_at_zero_time_is_input():
    d = DampingParams(kappa=1.0, n_thermal=0.1)
    p = coherent_distribution(2.0, 32).probs
    assert np.array_equal(f_star(p, d, 0.0), p)


def test_f_star_at_underflowing_time_is_input():
    # 2 kappa (n_b + 1) t rounds to 0, so x = 0 and log x is undefined; the
    # kernel is the identity and the decay factor exactly 1
    d = DampingParams(kappa=0.1)
    p = np.ones(33) / 33
    assert np.array_equal(f_star(p, d, 5e-324), p)


def test_f_star_vacuum_input():
    d = DampingParams(kappa=1.0)
    p = np.zeros(33)
    p[0] = 1.0
    assert f_star(p, d, 0.7)[0] == pytest.approx(math.exp(-0.7), rel=1e-12)


def test_f_star_single_photon_closed_form():
    d = DampingParams(kappa=1.0)
    p = np.zeros(33)
    p[1] = 1.0
    f = f_star(p, d, 0.1)
    assert f[1] == pytest.approx(math.exp(-0.3), rel=1e-12)
    assert f[0] == pytest.approx(1.5 * math.exp(-0.1) * (1.0 - math.exp(-0.2)),
                                 rel=1e-12)


@pytest.mark.parametrize("n_thermal", [0.0, 0.1, 0.3])
def test_f_star_matches_direct_integration(n_thermal):
    d = DampingParams(kappa=4.0, n_thermal=n_thermal)
    p = coherent_distribution(3.0, 40).probs
    for t in (0.02, 0.1, 0.35):
        ref = _tridiagonal_reference(p, d, t)
        assert np.abs(f_star(p, d, t) - ref).max() < 1e-9


def test_f_star_semigroup_at_zero_temperature():
    # evolving 2t equals evolving t twice when the solution is exact
    d = DampingParams(kappa=2.0)
    p = coherent_distribution(4.0, 40).probs
    once = f_star(f_star(p, d, 0.08), d, 0.08)
    twice = f_star(p, d, 0.16)
    assert np.abs(once - twice).max() < 1e-12


def test_ground_term_from_unitarity():
    d = DampingParams(kappa=1.0, n_thermal=0.1)
    p = coherent_distribution(2.0, 32).probs
    assert f_star_ground(p, d, 0.0) == 0.0
    t = 0.4
    assert f_star_ground(p, d, t) == pytest.approx(
        2.0 * (1.0 - f_star(p, d, t).sum()), abs=1e-14
    )


def test_ground_term_saturates_at_two():
    d = DampingParams(kappa=1.0)
    p = coherent_distribution(1.0, 32).probs
    assert f_star_ground(p, d, 50.0) == pytest.approx(2.0, abs=1e-10)


def test_ground_double_sum_cross_check():
    d = DampingParams(kappa=1.0, n_thermal=0.1)
    p = coherent_distribution(1.0, 20).probs[:4]
    p = p / p.sum()
    a = f_star_ground(p, d, 0.5)
    b = f_star_ground_double_sum(p, d, 0.5)
    assert a == pytest.approx(b, abs=1e-8)


def test_ground_double_sum_agrees_up_to_n20():
    d = DampingParams(kappa=2.0, n_thermal=0.2)
    p = coherent_distribution(3.0, 20).probs
    p = p / p.sum()
    for t in (0.0, 0.01, 0.1, 0.6):
        a = f_star_ground(p, d, t)
        b = f_star_ground_double_sum(p, d, t)
        assert a == pytest.approx(b, abs=1e-8)


def test_offdiag_decay_values():
    # the intra-doublet amplitudes (1/2) e^{-alpha_n t} p_n decay at
    # doublet_decay_rate, the alpha_n of the recurrence, at every level and
    # at a real nbar
    for d in (DampingParams(kappa=1.0), DampingParams(kappa=8.33,
                                                      n_thermal=0.1)):
        alpha, _, _ = rate_arrays(d, 32)
        assert np.allclose(doublet_decay_rate(d, np.arange(33)), alpha,
                           rtol=1e-15, atol=0.0)
        assert doublet_decay_rate(d, 49.0) == pytest.approx(
            2.0 * d.kappa * (2.0 * d.n_thermal * 50.0 + 49.5), rel=1e-15)


def test_residuals_vanish_at_zero_temperature():
    d = DampingParams(kappa=1.0)
    p = coherent_distribution(3.0, 40).probs
    rec, ground = residual_diagnostics(p, d, 0.2, 1e-5)
    assert rec < 1e-6 * d.kappa
    assert ground < 1e-6 * d.kappa


def test_residuals_bounded_by_model_error_term():
    d = DampingParams(kappa=1.0, n_thermal=0.1)
    p = coherent_distribution(9.0, 45).probs
    t = 0.2
    rec, ground = residual_diagnostics(p, d, t, 1e-6)
    assert rec < 1e-5 * d.kappa
    assert ground < 1e-5 * d.kappa


@pytest.mark.parametrize("kappa", [8.33, 0.1])
def test_f_star_operator_chunks_equal_single_time_calls(kappa):
    # three chunks at 121 levels, with t = 0 and t = 5e-324 (whose x rounds
    # to 0 at kappa = 0.1) in the second; fields shared by every time, and
    # a different stack per time
    d = DampingParams(kappa=kappa, n_thermal=0.13)
    size = 121
    step = KERNEL_CHUNK // size**2
    ts = np.arange(1.0, 2 * step + 4.0) * 0.7 / 36000.0
    ts[step + 1], ts[step + 2] = 0.0, 5e-324
    fields = np.array([coherent_distribution(nbar, size - 1).probs
                       for nbar in (49.0, 30.0)])
    per_time = fields * np.linspace(0.5, 1.0, ts.size)[:, None, None]
    bounds = []
    for chunk, kernels, decay in _f_star_chunks(size, d, ts):
        bounds.append(chunk.indices(ts.size)[:2])
        shared = _f_star_apply(kernels, decay, fields)
        own = _f_star_apply(kernels, decay, per_time[chunk])
        assert shared.shape == own.shape == (ts[chunk].size, 2, size)
        for c, t in enumerate(ts[chunk]):
            for row in range(2):
                assert np.array_equal(shared[c, row],
                                      f_star(fields[row], d, t))
                assert np.array_equal(own[c, row],
                                      f_star(per_time[chunk][c, row], d, t))
    assert bounds == [(0, step), (step, 2 * step), (2 * step, 2 * step + 3)]


@pytest.mark.parametrize("size", [2, 33, 121, 202])
@pytest.mark.parametrize("full", [False, True], ids=["one-time", "full-chunk"])
def test_stacked_product_equals_one_matmul_per_pair(size, full):
    # _f_star_apply against one 2-d np.matmul(kernel, field) per (time,
    # field) pair, times decay_n and clipped, for 1, 2 and 4 fields shared
    # by every time and one stack per time; t = 0 and t = 5e-324 (whose x
    # rounds to 0 at kappa = 0.1) give identity kernels.  A GEMM over the
    # times or fields of a chunk changes bits here
    d = DampingParams(kappa=0.1, n_thermal=0.13)
    if full:
        runs = [np.linspace(0.0, 3.0, KERNEL_CHUNK // size**2)]
        runs[0][1] = 5e-324
    else:
        runs = [np.array([t]) for t in (0.0, 5e-324, 1.3)]
    rng = np.random.default_rng(size)
    fields = rng.random((4, size))
    for ts in runs:
        [(_, kernels, decay)] = _f_star_chunks(size, d, ts)
        expect = np.empty((ts.size, 4, size))
        for stack in (fields, fields * rng.random((ts.size, 4, 1))):
            rows = np.broadcast_to(stack, expect.shape)
            for kernel, block, out in zip(kernels, rows, expect):
                for field, row in zip(block, out):
                    np.matmul(kernel, field, out=row)
            expect *= decay
            expect.clip(0.0, None, out=expect)
            for count in (1, 2, 4):
                assert np.array_equal(
                    _f_star_apply(kernels, decay, stack[..., :count, :]),
                    expect[:, :count])


@pytest.mark.parametrize("t", [0.0, 5e-324])
def test_identity_kernel_returns_the_field_bit_for_bit(t):
    # at kappa = 0.1, 2 kappa (n_b + 1) t rounds to 0 at both times: the
    # kernel is the identity and decay_n exactly 1, and the exact zeros of
    # the even cat at odd n stay +0.0
    p = cat_distribution(CatSpec(intensity=4.0), 32).probs
    assert (p[1::2] == 0.0).all()
    out = f_star(p, DampingParams(kappa=0.1, n_thermal=0.13), t)
    assert out.tobytes() == p.tobytes()
    assert not np.signbit(out).any()


def test_high_thermal_occupation_warns():
    # each closed-form entry that takes a DampingParams warns at its
    # caller's line
    damping = DampingParams(kappa=1.0, n_thermal=0.8)
    p0 = coherent_distribution(1.0, 16)
    entries = (
        lambda: ExperimentConfig(jc=JCParams(g=100.0), damping=damping,
                                 initial_field=p0),
        lambda: ResumParams(nbar=20.0, phase=0.0, max_order=2,
                            damping=damping, g=100.0),
        lambda: f_star(p0, damping, 0.1),
        lambda: f_star_ground(p0, damping, 0.1),
    )
    for entry in entries:
        with pytest.warns(ValidityWarning, match="n_thermal > 0.5") as record:
            entry()
        assert len(record) == 1
        assert record[0].filename == __file__


def test_damping_record_and_oracle_command_do_not_warn(tmp_path):
    # the record is shared with the oracle, which solves every n_b exactly
    with warnings.catch_warnings():
        warnings.simplefilter("error", ValidityWarning)
        DampingParams(kappa=1.0, n_thermal=0.8)
        assert main(["oracle", "--nbar", "1", "--nb", "0.6", "--t-max",
                     "0.001", "--samples", "3", "--out", str(tmp_path)]) == 0


def test_negative_time_rejected():
    d = DampingParams(kappa=1.0)
    p = coherent_distribution(1.0, 32).probs
    with pytest.raises(ValueError):
        f_star(p, d, -0.1)


@given(
    intensity=st.floats(min_value=0.1, max_value=20.0),
    n_thermal=st.floats(min_value=0.0, max_value=0.4),
    kt=st.floats(min_value=0.0, max_value=3.0),
)
@settings(max_examples=40, deadline=None)
def test_mass_never_exceeds_input(intensity, n_thermal, kt):
    d = DampingParams(kappa=1.0, n_thermal=n_thermal)
    p = coherent_distribution(intensity, 60).probs
    f = f_star(p, d, kt)
    assert np.all(f >= 0.0)
    assert f.sum() <= p.sum() + 1e-12


@pytest.mark.parametrize("kwargs", [{"kappa": math.nan},
                                    {"kappa": 1.0, "n_thermal": math.inf}])
def test_damping_params_reject_non_finite(kwargs):
    with pytest.raises(ValueError):
        DampingParams(**kwargs)


@pytest.mark.parametrize("p0", [[0.5, math.nan, 0.5], [0.5, math.inf],
                                [[0.5, 0.5], [0.5, 0.5]], 0.5])
@pytest.mark.parametrize("helper", [f_star, f_star_ground])
def test_closed_form_helpers_reject_malformed_fields(helper, p0):
    with pytest.raises(ValueError):
        helper(np.array(p0), DampingParams(kappa=1.0), 0.1)
