import ast
import logging
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from catcavity import (
    CatSpec,
    ConsistencyError,
    DampingParams,
    JCParams,
    PhotonDistribution,
    coherent_distribution,
    default_truncation,
)
from catcavity import oracle
from catcavity.cli import main
from catcavity.damping import f_star, offdiag_decay
from catcavity.dressed import dressed_annihilation, dressed_basis
from catcavity.presets import PRESETS
from references import (complex_block_trajectory, dense_observables,
                        dense_trajectory, validate_density_matrix)


def _dense_rhs(rho, jc, damping, trunc):
    """drho/dt from dense operator products; jc=None or damping=None drops
    the coupling or the dissipator."""
    a_f = np.diag(np.sqrt(np.arange(1.0, trunc + 1)), 1)
    a = np.kron(a_f, np.eye(2))
    ad = a.conj().T
    out = np.zeros_like(rho, dtype=complex)
    if jc is not None:
        sigma_p = np.array([[0.0, 1.0], [0.0, 0.0]])
        sigma_z = np.diag([1.0, -1.0])
        h = jc.g * (np.kron(a_f, sigma_p) + np.kron(a_f.T, sigma_p.T))
        h = h + 0.5 * jc.detuning * np.kron(np.eye(trunc + 1), sigma_z)
        out = out + 1j * (rho @ h - h @ rho)
    if damping is not None:
        k, nb = damping.kappa, damping.n_thermal
        ada, aad = ad @ a, a @ ad
        out = out - k * (nb + 1.0) * (ada @ rho + rho @ ada
                                      - 2.0 * a @ rho @ ad)
        out = out - k * nb * (aad @ rho + rho @ aad - 2.0 * ad @ rho @ a)
    return out


def test_liouvillian_matches_dense_rhs():
    # coupled and damped, uncoupled (jc=None) and undamped (damping=None)
    rng = np.random.default_rng(7)
    trunc = 5
    dim = 2 * (trunc + 1)
    jc = JCParams(g=3.0, detuning=0.7)
    damping = DampingParams(kappa=0.4, n_thermal=0.3)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m + m.conj().T
    for gen_jc, gen_damping in ((jc, damping), (None, damping), (jc, None)):
        lind = oracle.liouvillian(gen_jc, gen_damping, trunc)
        expected = _dense_rhs(rho, gen_jc, gen_damping, trunc)
        got = (lind @ rho.reshape(-1)).reshape(dim, dim)
        assert np.abs(expected).max() > 1.0
        assert np.abs(got - expected).max() < 1e-12


def _dop853_reference(rho0, jc, damping, times):
    """vec(rho) at each time from DOP853 on the dense right-hand side."""
    trunc = rho0.truncation
    dim = 2 * (trunc + 1)

    def rhs(_t, v):
        return _dense_rhs(v.reshape(dim, dim), jc, damping, trunc).reshape(-1)

    distinct, inverse = np.unique(times, return_inverse=True)
    sol = solve_ivp(rhs, (rho0.time, times[-1]), rho0.matrix.reshape(-1),
                    method="DOP853", rtol=1e-12, atol=1e-15, t_eval=distinct)
    assert sol.success
    return sol.y.T[inverse]


@pytest.mark.parametrize("include_coupling", [True, False])
def test_block_propagator_matches_dop853(include_coupling):
    # truncated cat at phi != 0 fills every coherence order; the grid is
    # non-uniform, repeats a time and starts after rho0
    trunc = 6
    phi = 1.1
    base = oracle.coherent_state_vector(1.0, trunc)
    amp = base * (1.0 + np.exp(1j * phi) * (-1.0) ** np.arange(trunc + 1))
    rho0 = oracle.build_initial_state(amp / np.linalg.norm(amp), trunc)
    jc = JCParams(g=1.3, detuning=0.4) if include_coupling else None
    damping = DampingParams(kappa=0.2, n_thermal=0.15)
    times = np.array([0.3, 0.5, 0.5, 1.7, 2.0, 4.5])
    traj = oracle.integrate_trajectory(rho0, jc, damping, times)
    got = np.array([rho.matrix.reshape(-1) for rho in traj])
    expected = _dop853_reference(rho0, jc, damping, times)
    assert [rho.time for rho in traj] == list(times)
    assert np.abs(got - expected).max() < 1e-9


@given(g=st.floats(min_value=0.01, max_value=1e5),
       kappa=st.floats(min_value=1e-3, max_value=1e4),
       n_b=st.floats(min_value=0.0, max_value=0.5),
       trunc=st.integers(min_value=1, max_value=6),
       coupled=st.booleans(), damped=st.booleans(),
       detuning=st.floats(min_value=1e-3, max_value=1e5))
@settings(max_examples=60, deadline=None)
def test_atom_phases_make_resonant_liouvillian_real(g, kappa, n_b, trunc,
                                                    coupled, damped,
                                                    detuning):
    # vec(S* rho S) = d * vec(rho) with S = 1_field x diag(1, i) turns every
    # resonant Liouvillian real; a detuning keeps an imaginary diagonal
    s = np.tile([1.0, 1j], trunc + 1)
    d = np.outer(s.conj(), s).ravel()
    assert np.array_equal(oracle._atom_phases(trunc), d)
    jc = JCParams(g=g) if coupled else None
    damping = (DampingParams(kappa=kappa, n_thermal=n_b)
               if damped or jc is None else None)
    lind = oracle.liouvillian(jc, damping, trunc).tocoo()
    rotated = lind.data * d[lind.row] * d[lind.col].conj()
    assert lind.nnz > 0
    assert not rotated.imag.any()
    # each entry is real or imaginary, and the rotation only moves its part
    assert np.array_equal(np.abs(rotated.real),
                          np.abs(lind.data.real) + np.abs(lind.data.imag))
    detuned = oracle.liouvillian(JCParams(g=g, detuning=detuning), damping,
                                 trunc).tocoo()
    rotated = detuned.data * d[detuned.row] * d[detuned.col].conj()
    assert rotated.imag.any()


@pytest.mark.parametrize("nbar, trunc, n_b, dephase", [
    (4.0, 32, 0.0, False), (4.0, 32, 0.1, False), (16.0, 64, 0.1, True)])
def test_real_propagation_matches_complex_reference(caplog, nbar, trunc, n_b,
                                                    dephase):
    # the benchmark's phi != 0 cat at N = 32 with every block filled, and a
    # dephased cat at N = 64: the real propagation agrees with one complex
    # expm per block of the bare-basis Liouvillian
    preset = PRESETS["benson97"]
    jc = preset.jc()
    damping = DampingParams(kappa=preset.kappa, n_thermal=n_b)
    rho0 = oracle.build_initial_state(CatSpec(intensity=nbar, phase=1.0),
                                      trunc)
    if dephase:
        rho0 = oracle.dephased(rho0)
    times = np.linspace(0.0, 50.0 / jc.g, 21)
    caplog.set_level(logging.INFO, logger="catcavity")
    traj = oracle.integrate_trajectory(rho0, jc, damping, times)
    got = np.array([rho.matrix for rho in traj])
    expected = complex_block_trajectory(rho0, jc, damping, times)
    assert np.abs(got - expected).max() < 1e-13
    assert np.abs(expected[-1] - expected[0]).max() > 1e-2
    [message] = [r.getMessage() for r in caplog.records]
    assert "real" in message and "complex" not in message


@pytest.mark.parametrize("case", ["cat", "dephased", "uncoupled"])
def test_samples_bit_identical_to_dense_assembly(case):
    # a phi = 1 cat (cut at N = 8 and renormalized) fills every block; the
    # dense matrices built on request and the observables read from the
    # block vectors keep every bit of the dense assembly and the dense read
    preset = PRESETS["benson97"]
    trunc = 8
    jc = None if case == "uncoupled" else preset.jc()
    damping = DampingParams(kappa=preset.kappa, n_thermal=0.13)
    base = oracle.coherent_state_vector(2.0, trunc)
    amp = base * (1.0 + np.exp(1j) * (-1.0) ** np.arange(trunc + 1))
    rho0 = oracle.build_initial_state(amp / np.linalg.norm(amp), trunc)
    if case == "dephased":
        rho0 = oracle.dephased(rho0)
    times = np.linspace(0.0, 30.0 / preset.g, 7)
    traj = oracle.integrate_trajectory(rho0, jc, damping, times)
    expected = dense_trajectory(rho0, jc, damping, times)
    assert np.array_equal([rho.matrix for rho in traj], expected)
    assert [rho.time for rho in traj] == list(times)
    assert np.abs(expected[-1] - expected[0]).max() > 1e-2
    if jc is not None:
        obs = oracle.oracle_observables(traj, jc)
        got = (obs.p_plus, obs.f, obs.f_ground, obs.offdiag)
        for a, b in zip(got, dense_observables(expected, times, jc)):
            assert np.array_equal(a, b)


def test_trajectory_entries_and_indexing():
    trunc = 8
    jc = JCParams(g=2.0)
    rho0 = oracle.build_initial_state(CatSpec(intensity=0.3, phase=0.7),
                                      trunc)
    traj = oracle.integrate_trajectory(rho0, jc, DampingParams(kappa=0.3),
                                       [0.0, 0.2, 0.5])
    dense = np.array([rho.matrix for rho in traj])
    every = np.arange(2 * (trunc + 1))
    # k < 0 entries come back as conjugate transposes, like the dense fill
    assert np.array_equal(traj.entries(every[:, None], every[None, :]), dense)
    assert [r.time for r in traj[1:]] == [0.2, 0.5]
    assert np.array_equal(traj[-1].matrix, dense[2])
    with pytest.raises(IndexError):
        traj[3]
    with pytest.raises(IndexError):
        traj.entries(0, 2 * (trunc + 1))
    with pytest.raises(ValueError):
        traj.times[0] = 1.0


def _count_dense(monkeypatch):
    """A list that gains an entry per DensityMatrix built."""
    built = []
    post_init = oracle.DensityMatrix.__post_init__

    def counted(self):
        built.append(self.time)
        post_init(self)

    monkeypatch.setattr(oracle.DensityMatrix, "__post_init__", counted)
    return built


def test_readers_build_no_dense_sample(monkeypatch, tmp_path):
    preset = PRESETS["benson97"]
    jc = preset.jc()
    damping = DampingParams(kappa=preset.kappa, n_thermal=0.1)
    rho0 = oracle.build_initial_state(CatSpec(intensity=2.0, phase=1.1), 16)
    times = np.linspace(0.0, 30.0 / jc.g, 5)
    traj = oracle.integrate_trajectory(rho0, jc, damping, times)
    built = _count_dense(monkeypatch)
    oracle.oracle_observables(traj, jc)
    oracle.condition_on_atom(traj, "+")
    assert built == []
    # the joint builds its start, the k = 0 part of rho0, and no sample
    oracle.joint_probability_oracle(rho0, jc, damping, times[1], times[3],
                                    "+", "+")
    assert built == [0.0]
    built.clear()
    # the command builds its initial state and that state's k = 0 part only
    assert main(["oracle", "--nbar", "2", "--nb", "0.1", "--t-max", "0.002",
                 "--samples", "9", "--out", str(tmp_path)]) == 0
    assert built == [0.0, 0.0]


@pytest.mark.parametrize("ratio, expm_calls", [(2.0, 1), (2.5, 2)])
def test_joint_shares_one_propagator_per_step(monkeypatch, ratio, expm_calls):
    # t_B = 2 t_A repeats the first step, so both passages use one expm
    trunc = 16
    jc = JCParams(g=24000.0)
    damping = DampingParams(kappa=2500.0, n_thermal=0.1)
    rho0 = oracle.build_initial_state(CatSpec(intensity=2.0, phase=1.1), trunc)
    t_a = 5.0 / jc.g
    t_b = ratio * t_a
    expected = {(s1, s2): _joint_full_blocks(rho0, jc, damping, t_a, t_b,
                                             s1, s2)[0]
                for s1 in "+-" for s2 in "+-"}
    calls = []
    expm = oracle.expm
    monkeypatch.setattr(oracle, "expm", lambda a: calls.append(1) or expm(a))
    for (s1, s2), value in expected.items():
        calls.clear()
        got = oracle.joint_probability_oracle(rho0, jc, damping, t_a, t_b,
                                              s1, s2)
        assert len(calls) == expm_calls
        assert abs(got - value) < 1e-13
        assert 0.01 < got < 1.0


@pytest.mark.parametrize("jc, damping", [
    (JCParams(g=3.0), DampingParams(kappa=0.4, n_thermal=0.3)),
    (JCParams(g=3.0, detuning=0.7), DampingParams(kappa=0.4)),
    (None, DampingParams(kappa=0.4, n_thermal=0.3)),
    (JCParams(g=3.0), None)])
def test_liouvillian_triplets_never_repeat_an_entry(jc, damping):
    # the block generators are scattered from the triplets, which is only
    # right if no (row, col) pair needs a sum
    trunc = 5
    rows, cols, vals = oracle._liouvillian_triplets(jc, damping, trunc)
    pairs = rows * 4 * (trunc + 1) ** 2 + cols
    assert np.unique(pairs).size == pairs.size
    lind = oracle.liouvillian(jc, damping, trunc)
    assert lind.nnz == np.count_nonzero(vals)


def test_liouvillian_is_block_diagonal_in_coherence_order():
    # labels are k with the coupling on and (k, s_i, s_j) with it off
    trunc = 5
    k = oracle._block_labels(trunc, JCParams(g=3.0))
    for jc in (JCParams(g=3.0, detuning=0.7), None):
        lind = oracle.liouvillian(jc, DampingParams(kappa=0.4, n_thermal=0.3),
                                  trunc)
        label = oracle._block_labels(trunc, jc)
        coo = lind.tocoo()
        assert np.array_equal(label[coo.row], label[coo.col])
        assert np.array_equal(label < 0, k < 0)
        assert all(np.unique(k[label == value]).size == 1
                   for value in np.unique(label))
    assert np.unique(label).size > np.unique(k).size
    assert np.array_equal(label // 4, k)  # how `dephased` reads k
    # the coupling moves weight between the atom sectors of one k
    coupled = oracle.liouvillian(JCParams(g=3.0), None, trunc).tocoo()
    assert not np.array_equal(label[coupled.row], label[coupled.col])


def test_non_hermitian_initial_state_rejected():
    trunc = 4
    rho0 = oracle.build_initial_state(PhotonDistribution(np.eye(trunc + 1)[1]),
                                      trunc)
    skewed = rho0.matrix.copy()
    skewed[0, 2] = 0.1
    with pytest.raises(ConsistencyError, match="not Hermitian"):
        oracle.DensityMatrix(matrix=skewed, time=0.0)


@pytest.mark.parametrize("times", [[], [math.nan], [0.0, math.inf],
                                   [[0.0, 1.0]]])
def test_integrate_trajectory_rejects_malformed_times(times):
    rho0 = oracle.build_initial_state(PhotonDistribution(np.eye(5)[1]), 4)
    with pytest.raises(ValueError):
        oracle.integrate_trajectory(rho0, JCParams(g=1.0), None, times)


@pytest.mark.parametrize("amp", [np.ones(9), np.r_[math.nan, np.zeros(8)],
                                 np.eye(9)[:, :1]])
def test_initial_state_rejects_malformed_amplitudes(amp):
    with pytest.raises(ValueError):
        oracle.build_initial_state(amp, 8)


def test_density_matrix_truncation_follows_shape():
    rho0 = oracle.build_initial_state(PhotonDistribution(np.eye(8)[1]), 7)
    assert rho0.truncation == 7
    assert oracle.to_w_frame(rho0, JCParams(g=1.0)).shape == (16, 16)
    for shape in ((3, 3), (4, 6), (4,)):
        with pytest.raises(ValueError):
            oracle.DensityMatrix(matrix=np.zeros(shape), time=0.0)


@pytest.mark.parametrize("entry, time", [(0.0, math.nan), (0.0, math.inf),
                                         (math.nan, 0.0)])
def test_density_matrix_rejects_non_finite(entry, time):
    m = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    m[3, 3] = entry
    # finiteness is checked before Hermiticity, which a NaN would also fail
    with pytest.raises(ValueError, match="must be finite"):
        oracle.DensityMatrix(matrix=m, time=time)


def test_trace_drift_check_rejects_nan_drift(monkeypatch):
    # a propagator that returns NaN must not pass as zero drift
    rho0 = oracle.build_initial_state(PhotonDistribution(np.eye(5)[1]), 4)
    monkeypatch.setattr(oracle, "expm", lambda a: np.full(a.shape, math.nan))
    with pytest.raises(ConsistencyError):
        oracle.integrate_trajectory(rho0, JCParams(g=1.0),
                                    DampingParams(kappa=0.1), [0.0, 1.0])


def test_cat_state_vector_norm_and_parity():
    amp = oracle.cat_state_vector(CatSpec(intensity=3.0, phase=0.0), 32)
    assert np.vdot(amp, amp).real == pytest.approx(1.0, abs=1e-12)
    assert np.all(amp[1::2] == 0.0)


def test_initial_state_is_valid_density_matrix():
    rho0 = oracle.build_initial_state(CatSpec(intensity=3.0), 32)
    validate_density_matrix(rho0)
    # atom starts excited
    diag = np.diag(rho0.matrix).real
    assert diag[0::2].sum() == pytest.approx(1.0, abs=1e-12)


def test_initial_state_from_distribution_is_diagonal():
    p0 = coherent_distribution(2.0, 32)
    rho0 = oracle.build_initial_state(p0, 32)
    field = rho0.matrix[0::2, 0::2]
    assert np.abs(field - np.diag(np.diag(field))).max() == 0.0


def test_single_photon_rabi_oscillation():
    # |1> photon, excited atom, no damping: population swings at 2 g sqrt(2)
    trunc = 4
    g = 10.0
    p0 = np.zeros(trunc + 1)
    p0[1] = 1.0
    rho0 = oracle.build_initial_state(PhotonDistribution(p0), trunc)
    period = 2.0 * math.pi / (2.0 * g * math.sqrt(2.0))
    times = np.linspace(0.0, period, 9)
    traj = oracle.integrate_trajectory(rho0, JCParams(g=g), None, times)
    p_plus = np.array([np.diag(r.matrix).real[0::2].sum() for r in traj])
    expected = np.cos(g * math.sqrt(2.0) * times) ** 2
    assert np.abs(p_plus - expected).max() < 1e-7


def test_undamped_collapse_revival_sum():
    trunc = 32
    jc = JCParams(g=100.0)
    p0 = coherent_distribution(4.0, trunc)
    rho0 = oracle.build_initial_state(p0, trunc)
    times = np.linspace(0.0, 0.05, 8)
    traj = oracle.integrate_trajectory(rho0, jc, None, times)
    obs = oracle.oracle_observables(traj, jc)
    n = np.arange(trunc + 1)
    exact = np.array([
        0.5 + 0.5 * np.sum(p0.probs * np.cos(2.0 * jc.g * t * np.sqrt(n + 1.0)))
        for t in times
    ])
    assert np.abs(obs.p_plus - exact).max() < 1e-7


def test_thermal_stationary_state():
    trunc = 32
    damping = DampingParams(kappa=5.0, n_thermal=0.4)
    p0 = np.zeros(trunc + 1)
    p0[0] = 1.0
    rho0 = oracle.build_initial_state(PhotonDistribution(p0), trunc)
    traj = oracle.integrate_trajectory(rho0, None, damping, [0.0, 3.0])
    diag = np.diag(traj[-1].matrix).real
    field = diag[0::2] + diag[1::2]
    nb = 0.4
    thermal = (nb / (1.0 + nb)) ** np.arange(trunc + 1) / (1.0 + nb)
    assert np.abs(field - thermal).max() < 1e-9


def test_energy_decay_fixes_kappa_convention():
    trunc = 32
    damping = DampingParams(kappa=5.0)
    rho0 = oracle.build_initial_state(coherent_distribution(4.0, trunc), trunc)
    traj = oracle.integrate_trajectory(rho0, None, damping, [0.0, 0.1])
    diag = np.diag(traj[-1].matrix).real
    mean = np.arange(trunc + 1) @ (diag[0::2] + diag[1::2])
    assert mean == pytest.approx(4.0 * math.exp(-1.0), abs=1e-9)


def test_dressed_basis_is_orthonormal():
    u, rabi = dressed_basis(10)
    assert np.abs(u.T @ u - np.eye(22)).max() < 1e-14
    assert rabi[0] == 0.0      # |0, ->
    assert rabi[21] == 0.0     # |N, +>
    assert rabi[1 + 2 * 3] == pytest.approx(2.0)  # psi_3^+


def test_dressed_annihilation_matches_bare_rotation():
    trunc = 12
    u, _ = dressed_basis(trunc)
    a_bare = np.kron(np.diag(np.sqrt(np.arange(1.0, trunc + 1)), 1), np.eye(2))
    expected = u.T @ a_bare @ u
    assert np.abs(dressed_annihilation(JCParams(g=2.0), trunc) - expected).max() < 1e-13


def test_w_frame_diagonal_matches_f_star_at_zero_temperature():
    trunc = 32
    jc = JCParams(g=36000.0)
    damping = DampingParams(kappa=8.33)
    p0 = coherent_distribution(4.0, trunc)
    rho0 = oracle.build_initial_state(p0, trunc)
    times = np.linspace(0.0, 0.5 / damping.kappa, 4)
    traj = oracle.integrate_trajectory(rho0, jc, damping, times)
    obs = oracle.oracle_observables(traj, jc)
    for i, t in enumerate(times):
        ref = f_star(p0, damping, t)
        assert np.abs(obs.f[i] - ref[:trunc]).max() < 1e-3


def test_observables_match_w_frame_read():
    # the bare-basis reads equal the dressed-frame elements of to_w_frame on
    # a coupled, damped, thermal trajectory with Fock coherences
    trunc = 16
    jc = JCParams(g=36000.0)
    damping = DampingParams(kappa=250.0, n_thermal=0.1)
    rho0 = oracle.build_initial_state(CatSpec(intensity=2.0, phase=1.3), trunc)
    traj = oracle.integrate_trajectory(rho0, jc, damping,
                                       np.linspace(0.0, 40.0 / jc.g, 7))
    obs = oracle.oracle_observables(traj, jc)
    plus = 1 + 2 * np.arange(trunc)
    minus = plus + 1
    ground, edge = 0, 2 * trunc + 1
    _, rabi = dressed_basis(trunc)
    for i, rho in enumerate(traj):
        w = oracle.to_w_frame(rho, jc)
        # undo the Rabi phases: |n, +> = (psi_n^+ + psi_n^-) / sqrt(2)
        ph = np.exp(1j * jc.g * rabi * rho.time)
        d = ph.conj()[:, None] * w * ph[None, :]
        p_plus = (0.5 * (d[plus, plus] + d[minus, minus]).real.sum()
                  + d[plus, minus].real.sum() + d[edge, edge].real)
        assert abs(obs.p_plus[i] - p_plus) < 1e-14
        assert np.abs(obs.f[i] - (w[plus, plus] + w[minus, minus]).real).max() < 1e-14
        assert abs(obs.f_ground[i] - 2.0 * w[ground, ground].real) < 1e-14
        assert np.abs(obs.offdiag[i] - w[plus, minus]).max() < 1e-14
    assert np.abs(obs.offdiag).max() > 1e-3


def test_offdiag_decay_matches_oracle_in_secular_regime():
    trunc = 32
    jc = JCParams(g=36000.0)
    damping = DampingParams(kappa=8.33, n_thermal=0.1)
    p0 = coherent_distribution(3.3, trunc)
    rho0 = oracle.build_initial_state(p0, trunc)
    times = np.linspace(0.0, 0.5 / damping.kappa, 5)
    traj = oracle.integrate_trajectory(rho0, jc, damping, times)
    obs = oracle.oracle_observables(traj, jc)
    scale = 0.5 * p0.probs[5]
    for i, t in enumerate(times):
        predicted = offdiag_decay(p0, damping, t)[5]
        assert abs(abs(obs.offdiag[i, 5]) - predicted) < 0.02 * scale


def test_offdiag_secular_rate_fails_at_strong_damping():
    # kappa/g ~ 0.1: the inter-level feeding term oscillates at only
    # g / sqrt(n), slower than the decay itself, so the single-exponential
    # rate overshoots the true decay by tens of percent
    trunc = 32
    jc = JCParams(g=24000.0)
    damping = DampingParams(kappa=2500.0, n_thermal=0.1)
    p0 = coherent_distribution(3.3, trunc)
    rho0 = oracle.build_initial_state(p0, trunc)
    times = np.linspace(0.0, 0.5 / damping.kappa, 5)
    traj = oracle.integrate_trajectory(rho0, jc, damping, times)
    obs = oracle.oracle_observables(traj, jc)
    scale = 0.5 * p0.probs[5]
    worst = max(
        abs(abs(obs.offdiag[i, 5]) - offdiag_decay(p0, damping, t)[5]) / scale
        for i, t in enumerate(times)
    )
    assert worst > 0.1


def test_w_constant_without_damping():
    trunc = 16
    jc = JCParams(g=50.0)
    rho0 = oracle.build_initial_state(CatSpec(intensity=2.0), trunc)
    times = [0.0, 0.013, 0.2]
    traj = oracle.integrate_trajectory(rho0, jc, None, times)
    w0 = oracle.to_w_frame(traj[0], jc)
    for rho in traj[1:]:
        w = oracle.to_w_frame(rho, jc)
        assert np.abs(w - w0).max() < 1e-8


@pytest.mark.parametrize("kappa_scale", [1.0, 1.01])
def test_w_equation_residuals_small_on_trajectory(kappa_scale):
    # the residual stays under 1e-3 kappa ||W|| on the true trajectory and
    # exceeds it once the trajectory decays 1 % faster than the check assumes
    jc = JCParams(g=36000.0)
    damping = DampingParams(kappa=8.33, n_thermal=0.1)
    trunc = 32
    rho0 = oracle.build_initial_state(CatSpec(intensity=4.0), trunc)
    dt = 0.04 / jc.g
    window = oracle.integrate_trajectory(
        rho0, jc, DampingParams(kappa=8.33 * kappa_scale, n_thermal=0.1),
        40.0 / jc.g + dt * np.arange(-2.0, 3.0))
    residual, w_norm = oracle.w_equation_residuals(window, jc, damping)
    assert (residual < 1e-3 * damping.kappa * w_norm) == (kappa_scale == 1.0)


def test_w_equation_residuals_read_only_coherence_order_zero():
    # a phi != 0 cat fills every coherence order, yet the residual and
    # max |W| read k = 0 alone: a dephased start gives the same floats
    jc = JCParams(g=36000.0)
    damping = DampingParams(kappa=8.33, n_thermal=0.1)
    trunc = 16
    rho0 = oracle.build_initial_state(CatSpec(intensity=2.0, phase=1.1), trunc)
    dt = 0.04 / jc.g
    times = 40.0 / jc.g + dt * np.arange(-2.0, 3.0)
    full, dephased = (
        oracle.w_equation_residuals(
            oracle.integrate_trajectory(start, jc, damping, times), jc,
            damping)
        for start in (rho0, oracle.dephased(rho0)))
    assert full == dephased
    assert full[0] > 0.0


def test_w_equation_residuals_spacing_tolerance():
    # the steps of a center + dt * arange(-2, 3) window late in a run differ
    # from dt by rounding, about 3e-13 relative here, and the window passes;
    # a middle sample moved by 0.1 SPACING_RTOL dt passes too, and one moved
    # by 10 SPACING_RTOL dt is refused
    jc = JCParams(g=36000.0)
    damping = DampingParams(kappa=8.33, n_thermal=0.1)
    rho = oracle.build_initial_state(CatSpec(intensity=2.0), 16)
    dt = 0.04 / jc.g
    late = 300.0 / jc.g + dt * np.arange(-2.0, 3.0)
    rounding = np.abs(np.diff(late) - dt).max() / dt
    assert 1e-14 < rounding < 1e-3 * oracle.SPACING_RTOL
    for shift, accepted in ((0.0, True), (0.1, True), (10.0, False)):
        times = late.copy()
        times[2] += shift * oracle.SPACING_RTOL * dt
        window = [oracle.DensityMatrix(rho.matrix, t) for t in times]
        if accepted:
            oracle.w_equation_residuals(window, jc, damping)
        else:
            with pytest.raises(ValueError, match="uniform spacing"):
                oracle.w_equation_residuals(window, jc, damping)


def test_joint_probability_oracle_consistency():
    # conditioning then summing over the second outcome recovers the first
    # atom's marginal
    trunc = 32
    jc = JCParams(g=24000.0)
    damping = DampingParams(kappa=2500.0, n_thermal=0.1)
    rho0 = oracle.build_initial_state(CatSpec(intensity=3.3), trunc)
    t_a, t_b = 5.0 / jc.g, 12.0 / jc.g
    rho_a = oracle.integrate_trajectory(rho0, jc, damping, [t_a])[-1]
    _, weight = oracle.condition_on_atom(rho_a, "+")
    pp = oracle.joint_probability_oracle(rho0, jc, damping, t_a, t_b, "+", "+")
    pm = oracle.joint_probability_oracle(rho0, jc, damping, t_a, t_b, "+", "-")
    assert pp + pm == pytest.approx(weight, abs=1e-7)


def test_oracle_rejects_unknown_outcome():
    jc = JCParams(g=24000.0)
    damping = DampingParams(kappa=2500.0, n_thermal=0.1)
    rho0 = oracle.build_initial_state(PhotonDistribution(np.eye(9)[1]), 8)
    with pytest.raises(ValueError):
        oracle.condition_on_atom(rho0, "up")
    for s1, s2 in (("+", "x"), ("x", "+")):
        with pytest.raises(ValueError):
            oracle.joint_probability_oracle(rho0, jc, damping, 1e-4, 2e-4,
                                            s1, s2)


def _joint_full_blocks(rho0, jc, damping, t_a, t_b, s1, s2):
    """Joint probability with every block of rho0 propagated."""
    rho_a = oracle.integrate_trajectory(rho0, jc, damping, [t_a])[-1]
    field, _ = oracle.condition_on_atom(rho_a, s1)
    rho_b0 = oracle.reinject_excited(field, rho_a.time)
    rho_b = oracle.integrate_trajectory(rho_b0, jc, damping, [t_b])[-1]
    return oracle.condition_on_atom(rho_b, s2)[1], rho_b0


def test_joint_probability_oracle_matches_full_blocks(caplog):
    # a phi != 0 cat fills every coherence order; the conditioned field of
    # the full run keeps Fock coherences that the dephased run never forms
    trunc = 16
    jc = JCParams(g=24000.0, detuning=900.0)
    damping = DampingParams(kappa=2500.0, n_thermal=0.1)
    rho0 = oracle.build_initial_state(CatSpec(intensity=2.0, phase=1.1), trunc)
    t_a, t_b = 5.0 / jc.g, 12.0 / jc.g
    off_k0 = oracle._block_labels(trunc, jc) != 0
    caplog.set_level(logging.INFO, logger="catcavity")
    for s1 in "+-":
        for s2 in "+-":
            expected, rho_b0 = _joint_full_blocks(rho0, jc, damping, t_a, t_b,
                                                  s1, s2)
            assert np.abs(rho_b0.matrix.reshape(-1)[off_k0]).max() > 1e-3
            caplog.clear()
            got = oracle.joint_probability_oracle(rho0, jc, damping, t_a, t_b,
                                                  s1, s2)
            assert abs(got - expected) < 1e-12
            assert 0.01 < got < 1.0
            # one block, k = 0, of 4 N + 2 states per leg, one expm each;
            # the detuning keeps it complex
            assert [r.getMessage() for r in caplog.records] == [
                f"oracle: truncation {trunc}, propagated block sizes "
                f"[{4 * trunc + 2}], arithmetic [complex], expm builds 1"] * 2


def test_oracle_command_matches_full_block_observables(tmp_path):
    nbar, phi, nb, t_max, samples = 2.0, 1.1, 0.1, 0.004, 5
    code = main(["oracle", "--nbar", str(nbar), "--phi", str(phi),
                 "--nb", str(nb), "--t-max", str(t_max),
                 "--samples", str(samples), "--out", str(tmp_path)])
    assert code == 0
    rows = [line.split(",") for line in
            (tmp_path / "oracle.csv").read_text().splitlines()[2:]]
    preset = PRESETS["benson97"]
    trunc = default_truncation(nbar)
    rho0 = oracle.build_initial_state(CatSpec(intensity=nbar, phase=phi),
                                      trunc)
    traj = oracle.integrate_trajectory(
        rho0, preset.jc(), DampingParams(kappa=preset.kappa, n_thermal=nb),
        np.linspace(0.0, t_max, samples))
    obs = oracle.oracle_observables(traj, preset.jc())
    expected = []
    for i, t in enumerate(obs.times):
        expected.append([t, "p_plus", obs.p_plus[i]])
        expected.append([t, "f_ground", obs.f_ground[i]])
        expected += [[t, f"f_{n}", obs.f[i, n]] for n in range(trunc)]
    assert rows == [[format(t, ".12g"), name, format(v, ".12g")]
                    for t, name, v in expected]


def test_trace_drift_raises_cleanly():
    trunc = 32
    rho0 = oracle.build_initial_state(coherent_distribution(1.0, trunc), trunc)
    bad = oracle.DensityMatrix(matrix=rho0.matrix * 1.5, time=0.0)
    with pytest.raises(Exception):
        validate_density_matrix(bad)


def test_branch_coherence_starts_at_overlap_scale():
    spec = CatSpec(intensity=4.0)
    damping = DampingParams(kappa=8.33)
    coh = oracle.branch_coherence_trajectory(spec, damping, [0.0], 32)
    # <z|rho_C|-z> at t=0 is |<z|cat>|^2-like and of order 1/2
    assert 0.3 < coh[0] < 0.6


def test_branch_coherence_decays_faster_than_energy():
    spec = CatSpec(intensity=4.0)
    damping = DampingParams(kappa=8.33)
    t_half = damping.t_cav / (2.0 * 4.0)
    coh = oracle.branch_coherence_trajectory(spec, damping,
                                             [0.0, t_half, 4.0 * t_half], 32)
    assert coh[1] < 0.8 * coh[0]
    assert coh[2] < 0.1 * coh[0]


def test_oracle_imports_no_closed_form_module():
    # the oracle checks the closed form, so it must not share its code
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.update((node.module or "").split("."))
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                imported.update(alias.name.split("."))
    assert not imported & {"observables", "damping", "resummation"}
