import ast
import json
import logging
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
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
    ExperimentConfig,
    JCParams,
    PhotonDistribution,
    TruncationError,
    ValidityWarning,
    coherent_distribution,
    default_truncation,
    p_excited,
)
from catcavity import oracle, validation
from catcavity.cli import main
from catcavity.damping import doublet_decay_rate, f_star
from catcavity.dressed import dressed_annihilation, dressed_basis
from catcavity.presets import PRESETS
from references import (atom_phases, atom_sector, block_generator,
                        block_labels, branch_coherence_loop,
                        complex_block_trajectory, dense_observables,
                        dense_trajectory, dephased, fold_block,
                        hermitian_closure, pure_state, to_w_frame,
                        validate_density_matrix)
from references import liouvillian as liouvillian_reference


def _dense_rhs(rho, jc, damping, trunc):
    """drho/dt from dense operator products; jc=None drops the coupling."""
    a_f = np.diag(np.sqrt(np.arange(1.0, trunc + 1)), 1)
    a = np.kron(a_f, np.eye(2))
    ad = a.conj().T
    out = np.zeros_like(rho, dtype=complex)
    if jc is not None:
        sigma_p = np.array([[0.0, 1.0], [0.0, 0.0]])
        h = jc.g * (np.kron(a_f, sigma_p) + np.kron(a_f.T, sigma_p.T))
        out = out + 1j * (rho @ h - h @ rho)
    k, nb = damping.kappa, damping.n_thermal
    ada, aad = ad @ a, a @ ad
    out = out - k * (nb + 1.0) * (ada @ rho + rho @ ada - 2.0 * a @ rho @ ad)
    return out - k * nb * (aad @ rho + rho @ aad - 2.0 * ad @ rho @ a)


def test_liouvillian_matches_dense_rhs():
    # coupled and thermal, uncoupled (jc=None), and coupled at zero
    # temperature, where the thermal jump drops out
    rng = np.random.default_rng(7)
    trunc = 5
    dim = 2 * (trunc + 1)
    jc = JCParams(g=3.0)
    damping = DampingParams(kappa=0.4, n_thermal=0.3)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m + m.conj().T
    for gen_jc, gen_damping in ((jc, damping), (None, damping),
                                (jc, DampingParams(kappa=0.4))):
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


def _branch_overlap(field, spec, damping, times):
    """|<w|rho_C|w (-1)^n>| of each field matrix in the stack `field`, with
    w the coherent state of intensity spec.intensity e^{-2 kappa t}: the
    branch coherence read from dense matrices, one product per sample."""
    trunc = field.shape[1] - 1
    signs = (-1.0) ** np.arange(trunc + 1)
    probes = [oracle.coherent_state_vector(
        spec.intensity * math.exp(-2.0 * damping.kappa * t), trunc)
        for t in times]
    return np.array([abs(np.vdot(w, rho_c @ (w * signs)))
                     for w, rho_c in zip(probes, field)])


@pytest.mark.parametrize("include_coupling", [True, False])
def test_block_propagator_matches_dop853(include_coupling):
    # truncated cat at phi != 0 fills every coherence order; the grid is
    # non-uniform, repeats a time and starts after rho0.  With the coupling
    # off, the field-only run of the branch coherence matches the overlap
    # read from the "+" sector of the DOP853 run of its cat
    phi = 1.1
    damping = DampingParams(kappa=0.2, n_thermal=0.15)
    times = np.array([0.3, 0.5, 0.5, 1.7, 2.0, 4.5])
    if not include_coupling:
        trunc, spec = 10, CatSpec(intensity=0.5, phase=phi)
        rho0 = oracle.build_initial_state(spec, trunc)
        dim = 2 * (trunc + 1)
        field = _dop853_reference(rho0, None, damping, times).reshape(
            times.size, dim, dim)[:, 0::2, 0::2]
        expected = _branch_overlap(field, spec, damping, times)
        got = oracle.branch_coherence_trajectory(spec, damping, times, trunc)
        assert np.abs(got - expected).max() < 1e-9
        assert abs(expected[-1] - expected[0]) > 0.1
        return
    trunc = 6
    base = oracle.coherent_state_vector(1.0, trunc)
    amp = base * (1.0 + np.exp(1j * phi) * (-1.0) ** np.arange(trunc + 1))
    rho0 = pure_state(amp / np.linalg.norm(amp))
    jc = JCParams(g=1.3)
    traj = oracle.integrate_trajectory(rho0, jc, damping, times)
    got = np.array([rho.matrix.reshape(-1) for rho in traj])
    expected = _dop853_reference(rho0, jc, damping, times)
    assert [rho.time for rho in traj] == list(times)
    assert np.abs(got - expected).max() < 1e-9


@given(g=st.floats(min_value=0.01, max_value=1e5),
       kappa=st.floats(min_value=1e-3, max_value=1e4),
       n_b=st.floats(min_value=0.0, max_value=0.5),
       trunc=st.integers(min_value=1, max_value=6),
       coupled=st.booleans())
@settings(max_examples=60, deadline=None)
def test_atom_phases_make_resonant_liouvillian_real(g, kappa, n_b, trunc,
                                                    coupled):
    # vec(S* rho S) = d * vec(rho) with S = 1_field x diag(1, i) turns every
    # resonant Liouvillian real, so the block builds drop only zeros when
    # they keep the real part.  The library computes d at the positions it
    # reads: every one, and a reversed subset
    d = atom_phases(trunc)
    every = np.arange(d.size)
    assert np.array_equal(oracle._atom_phases(every, trunc), d)
    assert np.array_equal(oracle._atom_phases(every[::-3], trunc),
                          d[::-3])
    jc = JCParams(g=g) if coupled else None
    damping = DampingParams(kappa=kappa, n_thermal=n_b)
    lind = oracle.liouvillian(jc, damping, trunc).tocoo()
    rotated = lind.data * d[lind.row] * d[lind.col].conj()
    assert lind.nnz > 0
    assert not rotated.imag.any()
    # each entry is real or imaginary, and the rotation only moves its part
    assert np.array_equal(np.abs(rotated.real),
                          np.abs(lind.data.real) + np.abs(lind.data.imag))


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
        rho0 = dephased(rho0)
    times = np.linspace(0.0, 50.0 / jc.g, 21)
    caplog.set_level(logging.INFO, logger="catcavity")
    traj = oracle.integrate_trajectory(rho0, jc, damping, times)
    got = np.array([rho.matrix for rho in traj])
    expected = complex_block_trajectory(rho0, jc, damping, times)
    assert np.abs(got - expected).max() < 1e-13
    assert np.abs(expected[-1] - expected[0]).max() > 1e-2
    # the populations' block, k = 0, on the real part of its closure
    assert [r.getMessage() for r in caplog.records] == [
        f"oracle: truncation {trunc}, propagated block sizes "
        f"[{4 * trunc + 2}], expm builds 1 of sizes [{3 * trunc + 2}]"]


@pytest.mark.parametrize("case", ["cat", "dephased"])
def test_samples_bit_identical_to_dense_assembly(case):
    # a phi = 1 cat (cut at N = 8 and renormalized) fills every block; the
    # dense matrices built on request and the observables read from the
    # block vectors keep every bit of the dense assembly and the dense read
    preset = PRESETS["benson97"]
    trunc = 8
    jc = preset.jc()
    damping = DampingParams(kappa=preset.kappa, n_thermal=0.13)
    base = oracle.coherent_state_vector(2.0, trunc)
    amp = base * (1.0 + np.exp(1j) * (-1.0) ** np.arange(trunc + 1))
    rho0 = pure_state(amp / np.linalg.norm(amp))
    if case == "dephased":
        rho0 = dephased(rho0)
    times = np.linspace(0.0, 30.0 / preset.g, 7)
    traj = oracle.integrate_trajectory(rho0, jc, damping, times)
    expected = dense_trajectory(rho0, jc, damping, times)
    assert np.array_equal([rho.matrix for rho in traj], expected)
    assert [rho.time for rho in traj] == list(times)
    assert np.abs(expected[-1] - expected[0]).max() > 1e-2
    obs = oracle.oracle_observables(traj, jc)
    got = (obs.p_plus, obs.f, obs.f_ground)
    for a, b in zip(got, dense_observables(expected, times, jc)[:3]):
        assert np.array_equal(a, b)


def _benchmark_cat():
    """The benchmark's phi != 0 cat at N = 32 (33 filled blocks, k = 0..32)
    on a uniform grid, with the benson97 coupling at n_b = 0.1."""
    preset = PRESETS["benson97"]
    jc = preset.jc()
    damping = DampingParams(kappa=preset.kappa, n_thermal=0.1)
    rho0 = oracle.build_initial_state(CatSpec(intensity=4.0, phase=1.1), 32)
    return rho0, jc, damping, np.linspace(0.0, 50.0 / jc.g, 21)


def _expm_inputs(monkeypatch):
    """A list that gains the matrix given to each expm call."""
    given = []
    expm = oracle.expm
    monkeypatch.setattr(oracle, "expm", lambda a: given.append(a) or expm(a))
    return given


def _triplets(jc, damping, trunc, positions):
    """`oracle._triplets` on a structure built anew for `positions`."""
    return oracle._triplets(jc, damping, oracle._structure(
        trunc, positions, jc is not None, oracle._active(damping)))


def _expm_sizes(monkeypatch):
    """A list that gains the size of each matrix given to expm."""
    sizes = []
    expm = oracle.expm
    monkeypatch.setattr(oracle, "expm",
                        lambda a: sizes.append(a.shape[0]) or expm(a))
    return sizes


def _block_reads(monkeypatch):
    """A list that gains k at each call of `Trajectory._block`."""
    orders = []
    block = oracle.Trajectory._block
    monkeypatch.setattr(oracle.Trajectory, "_block",
                        lambda self, k: orders.append(k) or block(self, k))
    return orders


def test_trajectory_propagates_each_block_when_first_read(monkeypatch):
    # the benchmark's phi != 0 cat fills every block of k > 0, an even cat
    # the even ones, and a photon distribution none: a block that rho0
    # leaves empty builds no expm and reads as exact zeros
    rho0, jc, damping, times = _benchmark_cat()
    trunc = rho0.truncation
    label = block_labels(trunc, jc)
    starts = {32: rho0,
              16: oracle.build_initial_state(CatSpec(intensity=4.0), trunc),
              0: oracle.build_initial_state(coherent_distribution(4.0, trunc),
                                            trunc)}
    built = _expm_sizes(monkeypatch)
    reads = _block_reads(monkeypatch)
    for count, rho0 in starts.items():
        filled = np.unique(label[(label > 0) & (rho0.matrix.reshape(-1) != 0)])
        assert filled.size == count
        built.clear()
        traj = oracle.integrate_trajectory(rho0, jc, damping, times)
        oracle.oracle_observables(traj, jc)
        # one expm: the k = 0 block on the real part of its Hermitian
        # closure, one step length; no block of k > 0 is touched
        assert built == [3 * trunc + 2]
        assert reads == []
        built.clear()
        # rho(|3, +>, |0, +>) has k = 4 - 1; its block alone is propagated
        assert label[6 * 2 * (trunc + 1)] == 3
        entry = traj.entries(6, 0)
        assert reads == [3]
        assert built == ([np.count_nonzero(label == 3)] if 3 in filled
                         else [])
        built.clear()
        samples = np.array([rho.matrix.reshape(-1) for rho in traj])
        assert sorted(built) == sorted(np.count_nonzero(label == k)
                                       for k in filled)
        empty = ~np.isin(np.abs(label), np.r_[0, filled])
        assert not samples[:, empty].any()
        assert entry.any() == (3 in filled)
        # nothing is kept beside the closure: a second read propagates its
        # block again, with the same bits
        built.clear()
        reads.clear()
        assert np.array_equal(traj.entries(6, 0), entry)
        assert reads == [3]
        assert built == ([np.count_nonzero(label == 3)] if 3 in filled
                         else [])
        reads.clear()


def test_iteration_and_slices_read_each_block_once(monkeypatch):
    # iteration reads every entry of every sample with one `entries` call,
    # one `_block` call per order k = 1..N+1, and builds one DensityMatrix
    # per sample; a slice reads once too, whatever its length
    rho0, jc, damping, times = _benchmark_cat()
    trunc = rho0.truncation
    traj = oracle.integrate_trajectory(rho0, jc, damping, times)
    reads = _block_reads(monkeypatch)
    made = []
    post_init = oracle.DensityMatrix.__post_init__
    monkeypatch.setattr(oracle.DensityMatrix, "__post_init__",
                        lambda rho: made.append(rho.time) or post_init(rho))
    samples = [rho.matrix for rho in traj]
    assert reads == list(range(1, trunc + 2))
    assert made == list(times)
    reads.clear()
    made.clear()
    tail = traj[1:]
    assert reads == list(range(1, trunc + 2))
    assert made == list(times[1:])
    assert np.array_equal([rho.matrix for rho in tail], samples[1:])


def test_read_order_keeps_every_bit():
    # a k = 3 entry first and then every dense sample, the reverse order,
    # every entry in one read, and the blocks one by one from the highest k
    # down, through their k < 0 transposes: each keeps every bit of the
    # dense assembly
    rho0, jc, damping, times = _benchmark_cat()
    expected = dense_trajectory(rho0, jc, damping, times)
    every = np.arange(2 * (rho0.truncation + 1))
    label = block_labels(rho0.truncation, jc).reshape(every.size, -1)
    first = oracle.integrate_trajectory(rho0, jc, damping, times)
    entry_first = first.entries(6, 0)
    samples_first = [rho.matrix for rho in first]
    last = oracle.integrate_trajectory(rho0, jc, damping, times)
    samples_last = [last[i].matrix for i in reversed(range(len(last)))]
    entry_last = last.entries(6, 0)
    whole = oracle.integrate_trajectory(rho0, jc, damping, times)
    by_block = oracle.integrate_trajectory(rho0, jc, damping, times)
    for k in range(label.max(), 0, -1):
        by_block.entries(*np.nonzero(label == -k))
    assert np.array_equal(samples_first, expected)
    assert np.array_equal(samples_last[::-1], expected)
    for traj in (whole, by_block):
        assert np.array_equal(traj.entries(every[:, None], every[None, :]),
                              expected)
    assert np.array_equal(entry_first, expected[:, 6, 0])
    assert np.array_equal(entry_last, expected[:, 6, 0])
    assert np.abs(expected[:, 6, 0]).min() > 1e-3


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
    # narrow unsigned indices do not wrap: 15 * 18 exceeds 255
    assert np.array_equal(traj.entries(np.uint8(15), np.uint8([15, 12])),
                          dense[:, 15, [15, 12]])
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
    assert built == []
    # the joint reads populations and builds no density matrix
    oracle.joint_probability_oracle(rho0, jc, damping, times[1], times[3],
                                    "+", "+")
    assert built == []
    # the residual reads the k = 0 entries of a window into one W stack
    window = oracle.integrate_trajectory(
        rho0, jc, damping, 30.0 / jc.g + 0.04 / jc.g * np.arange(5.0))
    oracle.w_equation_residuals(window, jc, damping)
    assert built == []
    # the check builds its initial state only, and the field-only run of
    # the branch coherence none at all
    validation.check_w_residuals()
    assert built == [0.0]
    built.clear()
    oracle.branch_coherence_trajectory(CatSpec(intensity=2.0), damping,
                                       times, 16)
    assert built == []
    # the command builds its initial state only
    assert main(["oracle", "--nbar", "2", "--nb", "0.1", "--t-max", "0.002",
                 "--samples", "9", "--out", str(tmp_path)]) == 0
    assert built == [0.0]


def test_k0_readers_never_build_the_cold_path(monkeypatch, tmp_path):
    # a phi != 0 cat fills every coherence order, yet every library reader
    # reads k = 0 alone: with the blocks of k != 0 unbuildable, the
    # observables, the four outcome pairs of the joint, the residual and
    # the oracle command all run, and the joint keeps the full-block value
    preset = PRESETS["benson97"]
    jc = preset.jc()
    damping = DampingParams(kappa=preset.kappa, n_thermal=0.1)
    rho0 = oracle.build_initial_state(CatSpec(intensity=2.0, phase=1.1), 16)
    dt = 0.04 / jc.g
    times = 30.0 / jc.g + dt * np.arange(7.0)
    t_a, t_b = 5.0 / jc.g, 12.0 / jc.g
    expected = {(s1, s2): _joint_full_blocks(rho0, jc, damping, t_a, t_b,
                                             s1, s2)[0]
                for s1 in "+-" for s2 in "+-"}

    def refuse(*args):
        raise AssertionError("a k != 0 block was built")

    monkeypatch.setattr(oracle.Trajectory, "_block", refuse)
    traj = oracle.integrate_trajectory(rho0, jc, damping, times)
    obs = oracle.oracle_observables(traj, jc)
    for (s1, s2), value in expected.items():
        got = oracle.joint_probability_oracle(rho0, jc, damping, t_a, t_b,
                                              s1, s2)
        assert abs(got - value) < 1e-12
    residual, _ = oracle.w_equation_residuals(traj, jc, damping)
    assert residual > 0.0
    assert main(["oracle", "--nbar", "2", "--phi", "1.1", "--nb", "0.1",
                 "--t-max", "0.002", "--samples", "5",
                 "--out", str(tmp_path)]) == 0
    with pytest.raises(AssertionError, match="k != 0 block"):
        traj.entries(6, 0)
    # the cold path, built on the same trajectory after those reads, keeps
    # every bit of the dense assembly, and so do the closure's reads
    monkeypatch.undo()
    expected = dense_trajectory(rho0, jc, damping, times)
    assert np.array_equal(traj.entries(6, 0), expected[:, 6, 0])
    assert np.array_equal(traj.entries(0, 6), expected[:, 0, 6])
    assert np.abs(expected[:, 6, 0]).min() > 1e-3
    assert np.array_equal(traj[3].matrix, expected[3])
    assert np.array_equal([rho.matrix for rho in traj], expected)
    again = dense_observables(expected, times, jc)[:3]
    for a, b in zip((obs.p_plus, obs.f, obs.f_ground), again):
        assert np.array_equal(a, b)


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


_GENERATOR_CASES = {
    "resonant": (JCParams(g=3.0), DampingParams(kappa=0.4)),
    "thermal": (JCParams(g=3.0), DampingParams(kappa=0.4, n_thermal=0.3)),
    "uncoupled": (None, DampingParams(kappa=0.4, n_thermal=0.3)),
}


@pytest.mark.parametrize("case", sorted(_GENERATOR_CASES))
def test_block_generators_match_reference(monkeypatch, case):
    # the k = 0 block of the engine, built from the positions it computes,
    # equals the reference's fold of the block scattered from the
    # whole-matrix triplets of the reference, bit for bit and in dtype, and
    # so does every filled block of k > 0 of a phi = 1.1 cat; with
    # the coupling off, the field-only run exponentiates the step times the
    # reference's (d, +, +) block of each diagonal d (its positions
    # (n + d, n) are the transposes of the run's (n, n + d), with the same
    # floats); so does the sparse Liouvillian
    jc, damping = _GENERATOR_CASES[case]
    trunc = 16
    dim = 2 * (trunc + 1)
    coo = liouvillian_reference(jc, damping, trunc).tocoo()
    phase = atom_phases(trunc)
    if jc is None:
        _uncoupled_generators_match_reference(monkeypatch, damping, trunc, coo,
                                              phase)
        return
    # the k = 0 block of the engine, folded onto its Hermitian closure
    idx = np.flatnonzero(block_labels(trunc, jc) == 0)
    closure = oracle._Closure(jc, damping, trunc)
    assert np.array_equal(closure.positions, idx)
    want = block_generator(coo, phase, idx)
    assert want.dtype.kind == "f"
    want_closure = hermitian_closure(idx, dim)
    for a, w in zip((closure.upper, closure.twin), want_closure):
        assert np.array_equal(a, w)
    for part, w in enumerate(fold_block(want, *want_closure)):
        got = closure._generator(part)
        assert got.dtype == w.dtype
        assert np.array_equal(got, w)
    # every filled block of k > 0 of the cold path, each built alone: a
    # one-step run exponentiates the step 1 times its generator
    rho0 = oracle.build_initial_state(CatSpec(intensity=2.0, phase=1.1), trunc)
    traj = oracle.integrate_trajectory(rho0, jc, damping, [0.0, 1.0])
    given = _expm_inputs(monkeypatch)
    traj[0]
    label = block_labels(trunc, jc)
    assert len(given) == trunc
    for k, got in enumerate(given, 1):
        idx = np.flatnonzero(label == k)
        want = block_generator(coo, phase, idx)
        assert hermitian_closure(idx, dim) is None
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    _liouvillian_matches_reference(jc, damping, trunc)


def _liouvillian_matches_reference(jc, damping, trunc):
    for n in (1, 2, trunc):
        want = liouvillian_reference(jc, damping, n)
        got = oracle.liouvillian(jc, damping, n)
        assert got.nnz == want.nnz and got.dtype == want.dtype
        assert (got != want).nnz == 0


def _uncoupled_generators_match_reference(monkeypatch, damping, trunc, coo,
                                          phase):
    """The matrix of each expm of a one-step field-only run against the step
    times the reference's (d, +, +) block, d = 0..trunc."""
    given = _expm_inputs(monkeypatch)
    step = 0.37
    oracle.branch_coherence_trajectory(CatSpec(intensity=2.0, phase=1.1),
                                       damping, [0.0, step], trunc)
    label = block_labels(trunc, None)
    assert len(given) == trunc + 1
    for d, got in enumerate(given):
        want = block_generator(coo, phase, np.flatnonzero(label == 4 * d))
        assert want.dtype == got.dtype
        assert np.array_equal(got, step * want)
    _liouvillian_matches_reference(None, damping, trunc)


def _imaginary_k0_start(trunc):
    """An even mix of the phi = 1.1 cat with (|3, +> + |4, ->) / sqrt(2),
    whose k = 0 block has a coherence between |3, +> and |4, -> that is
    imaginary in the atom-phase frame (its phase there is i); the state
    (|3, +> + i |4, ->) / sqrt(2) would be real there."""
    cat = oracle.build_initial_state(CatSpec(intensity=2.0, phase=1.1), trunc)
    psi = np.zeros(2 * (trunc + 1), dtype=complex)
    psi[[6, 9]] = 1.0 / math.sqrt(2.0)
    return oracle.DensityMatrix(
        matrix=0.5 * cat.matrix + 0.5 * np.outer(psi, psi.conj()), time=0.0)


@pytest.mark.parametrize("start, sizes", [
    ("real", lambda n: [3 * n + 2]),
    ("imaginary", lambda n: [3 * n + 2, n])])
def test_k0_block_expm_sizes(monkeypatch, caplog, start, sizes):
    # the k = 0 block runs on its Hermitian closure: the real parts on
    # 3 N + 2 states, and the imaginary parts on N only when the start has
    # some
    trunc = 16
    jc = JCParams(g=3.0)
    rho0 = (_imaginary_k0_start(trunc) if start == "imaginary" else
            oracle.build_initial_state(CatSpec(intensity=2.0, phase=1.1),
                                       trunc))
    built = _expm_sizes(monkeypatch)
    caplog.set_level(logging.INFO, logger="catcavity")
    oracle.integrate_trajectory(rho0, jc, DampingParams(kappa=0.4),
                                np.linspace(0.0, 2.0, 5))
    assert built == sizes(trunc)
    assert [r.getMessage() for r in caplog.records] == [
        f"oracle: truncation {trunc}, propagated block sizes "
        f"[{4 * trunc + 2}], expm builds {len(built)} of sizes {built}"]


@pytest.mark.parametrize("n_b", [0.0, 0.13])
def test_imaginary_k0_part_matches_complex_reference(n_b):
    # the imaginary k = 0 coherence runs on the antisymmetric generator:
    # every sample agrees with one complex expm per whole block and keeps
    # every bit of the dense assembly, which folds the same way
    preset = PRESETS["benson97"]
    jc = preset.jc()
    damping = DampingParams(kappa=preset.kappa, n_thermal=n_b)
    rho0 = _imaginary_k0_start(16)
    times = np.linspace(0.0, 30.0 / jc.g, 7)
    traj = oracle.integrate_trajectory(rho0, jc, damping, times)
    got = np.array([rho.matrix for rho in traj])
    expected = complex_block_trajectory(rho0, jc, damping, times)
    assert np.abs(got - expected).max() < 1e-13
    assert np.array_equal(got, dense_trajectory(rho0, jc, damping, times))
    # the atom-phase imaginary part, the bare real part of the coherence,
    # decays from |3, +><4, -| into |2, +><3, -|, where it starts at zero
    assert expected[0, 6, 9].real - expected[-1, 6, 9].real > 1e-2
    assert expected[0, 4, 7] == 0.0
    assert expected[-1, 4, 7].real > 1e-2


def test_off_hermitian_k0_start_comes_back_hermitian():
    # a start off Hermitian by 1e-12, inside HERMITIAN_TOL, in both the real
    # and the imaginary part of the atom-phase frame, runs on its Hermitian
    # part: every k = 0 entry is the exact conjugate of its transpose, every
    # population is real, and all of them keep every bit of a run from
    # (rho + rho^dagger) / 2
    trunc = 16
    jc, damping = JCParams(g=3.0), DampingParams(kappa=0.4, n_thermal=0.1)
    times = np.linspace(0.0, 2.0, 5)
    m = np.array(_imaginary_k0_start(trunc).matrix)
    m[6, 9] += 1e-12 * (1.0 + 1.0j)
    m[2, 2] += 1e-12j
    label = block_labels(trunc, jc)
    rows, cols = np.divmod(np.flatnonzero(label == 0), 2 * (trunc + 1))
    assert rows.size == 4 * trunc + 2
    got = []
    for start in (m, 0.5 * (m + m.conj().T)):
        traj = oracle.integrate_trajectory(
            oracle.DensityMatrix(matrix=start, time=0.0), jc, damping, times)
        got.append(traj.entries(rows, cols))
        assert np.array_equal(got[-1], traj.entries(cols, rows).conj())
    assert np.array_equal(*got)
    assert not got[0][:, rows == cols].imag.any()
    assert np.abs(got[0][:, (rows == 6) & (cols == 9)]).min() > 1e-3


def test_one_builder_call_per_block_build(monkeypatch):
    # the field-only run builds its generator by one call over the positions
    # (n, n + d) of every diagonal the cat fills: all 33 of the phi != 0 cat
    # at N = 32, the 17 even ones of the even cat; a k = 0 read of the
    # coupled run builds its k = 0 block alone, a k = 3 read then the k = 3
    # block alone, and a joint its k = 0 block, once for both passages
    trunc = 32
    calls = []  # the number of positions of each builder call's structure
    triplets = oracle._triplets
    # with both jumps on, every position has a non-zero diagonal sum
    monkeypatch.setattr(oracle, "_triplets", lambda *args: calls.append(
        args[2][2].shape[1]) or triplets(*args))
    preset = PRESETS["benson97"]
    damping = DampingParams(kappa=preset.kappa, n_thermal=0.1)
    spec = CatSpec(intensity=4.0, phase=1.1)
    for phase in (1.1, 0.0):
        oracle.branch_coherence_trajectory(
            CatSpec(intensity=4.0, phase=phase), damping,
            np.linspace(0.0, damping.t_cav, 11), trunc)
    assert calls == [(trunc + 1) * (trunc + 2) // 2, 17 ** 2]
    calls.clear()
    jc = preset.jc()
    rho0 = oracle.build_initial_state(spec, trunc)
    traj = oracle.integrate_trajectory(rho0, jc, damping,
                                       np.linspace(0.0, 50.0 / jc.g, 5))
    oracle.oracle_observables(traj, jc)
    assert calls == [4 * trunc + 2]
    calls.clear()
    traj.entries(6, 0)
    assert calls == [np.count_nonzero(block_labels(trunc, jc) == 3)]
    calls.clear()
    oracle.joint_probability_oracle(rho0, jc, damping, 5.0 / jc.g,
                                    12.0 / jc.g, "-", "+")
    assert calls == [4 * trunc + 2]


#: (coupling on, kappa, n_b) of runs at one truncation: n_b = 0, 0.13 and
#: 0 again, a new kappa, an n_b whose kappa n_b underflows to 0, the
#: coupling off at n_b = 0.13 and 0, and the coupling on again.
_KEPT_RUNS = [(True, 0.4, 0.0), (True, 0.4, 0.13), (True, 0.4, 0.0),
              (True, 1.7, 0.13), (True, 0.4, 5e-324), (False, 0.4, 0.13),
              (False, 0.4, 0.0), (True, 0.4, 0.13)]


def test_kept_structure_keeps_every_bit(monkeypatch):
    # the rate-free plan that each oracle engine keeps between calls is
    # keyed on more than the truncation: in every run of the sequence, the
    # triplets equal a build from a new structure and the reference's
    # block, bit for bit and in dtype, and so does every generator given to
    # expm; kappa n_b = 0 takes the plan of n_b = 0, and whatever is kept
    # is read-only and handed out again, not rebuilt
    trunc = 12
    jc = JCParams(g=3.0)
    spec = CatSpec(intensity=1.0, phase=1.1)
    rho0 = oracle.build_initial_state(spec, trunc)
    step = 0.37
    phase = atom_phases(trunc)
    labels = block_labels(trunc, jc), block_labels(trunc, None)
    k0 = np.flatnonzero(labels[0] == 0)
    closure = hermitian_closure(k0, 2 * (trunc + 1))
    n, m = np.triu_indices(trunc + 1)
    field = 4 * (trunc + 1) * n + 2 * m  # (2 n, 2 m) on every diagonal
    calls = []
    triplets = oracle._triplets
    monkeypatch.setattr(oracle, "_triplets", lambda *args: calls.append(
        (args, triplets(*args))) or calls[-1][1])
    given = _expm_inputs(monkeypatch)
    first = {}
    for coupled, kappa, n_b in _KEPT_RUNS:
        damping = DampingParams(kappa=kappa, n_thermal=n_b)
        calls.clear()
        given.clear()
        if coupled:
            oracle.integrate_trajectory(rho0, jc, damping, [0.0, step])
        else:
            oracle.branch_coherence_trajectory(spec, damping, [0.0, step],
                                               trunc)
        (args, got), = calls
        assert not any(a.flags.writeable for a in args[2])  # a kept plan's
        positions = k0 if coupled else field
        fresh = _triplets(args[0], damping, trunc, positions)
        for a, b in zip(got, fresh):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        rows, cols, vals = got
        coo = liouvillian_reference(args[0], damping, trunc).tocoo()
        dense = np.zeros((positions.size,) * 2, dtype=vals.dtype)
        dense[rows, cols] = vals
        want = block_generator(coo, np.ones(phase.size), positions)
        assert dense.dtype == want.dtype and np.array_equal(dense, want)
        assert np.count_nonzero(dense) == vals.size
        if coupled:
            wants = [fold_block(block_generator(coo, phase, k0), *closure)[0]]
        else:
            wants = [block_generator(coo, phase,
                                     np.flatnonzero(labels[1] == 4 * d))
                     for d in range(trunc + 1)]
        assert len(given) == len(wants)
        for a, w in zip(given, wants):
            assert a.dtype == w.dtype and np.array_equal(a, step * w)
        first.setdefault((coupled, kappa, kappa * n_b > 0), got)
        for a, b in zip(got, first[coupled, kappa, kappa * n_b > 0]):
            assert np.array_equal(a, b)
    assert 0.4 * 5e-324 == 0.0
    engine = oracle._Closure(jc, DampingParams(kappa=0.4), trunc)
    for name in ("positions", "upper", "twin", "pair", "column", "phase"):
        assert not getattr(engine, name).flags.writeable
    size, filled = trunc + 1, tuple(range(trunc + 1))
    for build, key in [(oracle._closure_plan, (trunc, (True, False))),
                       (oracle._closure_plan, (trunc, (True, True))),
                       (oracle._field_plan, (size, filled, (True, False))),
                       (oracle._field_plan, (size, filled, (True, True)))]:
        kept = build(*key)
        assert build(*key) is kept
        assert not any(array.flags.writeable for item in kept for array in
                       (item if isinstance(item, tuple) else [item]))


def test_kept_structure_is_shared_across_threads():
    # eight threads run engines and field runs at three truncations and two
    # sets of rates, six keys per plan against the four each keeps, so that
    # they drop each other's plans all the time: every generator and
    # coherence keeps the bits of a run in one thread
    cases = [(trunc, n_b) for trunc in (8, 10, 12) for n_b in (0.0, 0.13)]
    assert len(cases) > oracle._KEPT_KEYS
    spec = CatSpec(intensity=0.3, phase=1.1)

    def run(trunc, n_b):
        damping = DampingParams(kappa=0.4, n_thermal=n_b)
        engine = oracle._Closure(JCParams(g=3.0), damping, trunc)
        return engine._generator(0), oracle.branch_coherence_trajectory(
            spec, damping, [0.0, 0.1], trunc)

    expected = [run(*case) for case in cases]
    failures = []

    def worker(first):
        try:
            for k in range(first, first + 100):
                got = run(*cases[k % len(cases)])
                if not all(map(np.array_equal, got, expected[k % len(cases)])):
                    failures.append(cases[k % len(cases)])
        except Exception as exc:  # a thread reports its failure here
            failures.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(first,))
                   for first in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


@pytest.mark.parametrize("jc, damping", [
    (JCParams(g=3.0), DampingParams(kappa=0.4, n_thermal=0.3)),
    (JCParams(g=3.0), DampingParams(kappa=0.4)),
    (None, DampingParams(kappa=0.4, n_thermal=0.3)),
    (None, DampingParams(kappa=0.4))])
def test_liouvillian_triplets_never_repeat_an_entry(jc, damping):
    # the block generators are scattered from the triplets, which is only
    # right if no (row, col) pair needs a sum, over every position and over
    # one block alike, or with the coupling off over the "+" sector's
    # diagonals (n, n + d), d >= 0, that the field-only run builds; no
    # triplet holds a zero
    trunc = 5
    dim = 2 * (trunc + 1)
    every = np.arange(dim * dim)
    if jc is None:
        n, m = np.triu_indices(trunc + 1)
        part = 2 * dim * n + 2 * m
    else:
        part = np.flatnonzero(block_labels(trunc, jc) == 1)
    for positions in (every, part):
        rows, cols, vals = _triplets(jc, damping, trunc, positions)
        pairs = rows * positions.size + cols
        assert np.unique(pairs).size == pairs.size
        assert np.count_nonzero(vals) == vals.size
    lind = oracle.liouvillian(jc, damping, trunc)
    assert lind.nnz == _triplets(jc, damping, trunc, every)[2].size


def test_liouvillian_is_block_diagonal_in_coherence_order():
    # the library computes the coherence order k of every position from
    # (n, s), as the reference's labels with the coupling on; with it off
    # the reference's are (k, s_i, s_j).  The engine computes the positions
    # of the k = 0 block from (n, s), and the cold path those of every k > 0
    trunc = 5
    damping = DampingParams(kappa=0.4, n_thermal=0.3)
    for n in (1, 4, trunc, 32):
        every = np.arange(2 * (n + 1))
        order = oracle._coherence_order(every[:, None], every).ravel()
        assert np.array_equal(order, block_labels(n, JCParams(g=3.0)))
        assert np.array_equal(
            oracle._Closure(JCParams(g=3.0), damping, n).positions,
            np.flatnonzero(block_labels(n, JCParams(g=3.0)) == 0))
        for k in range(n + 2):
            assert np.array_equal(
                oracle._block_positions(n, k),
                np.flatnonzero(block_labels(n, JCParams(g=3.0)) == k))
    k = block_labels(trunc, JCParams(g=3.0))
    for jc in (JCParams(g=3.0), None):
        lind = oracle.liouvillian(jc, damping, trunc)
        label = block_labels(trunc, jc)
        coo = lind.tocoo()
        assert np.array_equal(label[coo.row], label[coo.col])
        assert np.array_equal(label < 0, k < 0)
        assert all(np.unique(k[label == value]).size == 1
                   for value in np.unique(label))
    assert np.unique(label).size > np.unique(k).size
    assert np.array_equal(label // 4, k)
    # the coupling moves weight between the atom sectors of one k
    coupled = oracle.liouvillian(JCParams(g=3.0), damping, trunc).tocoo()
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
        oracle.integrate_trajectory(rho0, JCParams(g=1.0),
                                    DampingParams(kappa=0.1), times)


@pytest.mark.parametrize("amp", [np.ones(9), np.r_[math.nan, np.zeros(8)],
                                 np.eye(9)[:, :1]])
def test_initial_state_rejects_malformed_amplitudes(amp):
    # the start is a CatSpec or a PhotonDistribution; amplitudes, malformed
    # or of unit norm, are refused by type
    for fieldspec in (amp, np.eye(9)[0]):
        with pytest.raises(TypeError, match="^fieldspec must be a CatSpec "
                           "or PhotonDistribution, got ndarray$"):
            oracle.build_initial_state(fieldspec, 8)


def test_density_matrix_truncation_follows_shape():
    rho0 = oracle.build_initial_state(PhotonDistribution(np.eye(8)[1]), 7)
    assert rho0.truncation == 7
    assert to_w_frame(rho0, JCParams(g=1.0)).shape == (16, 16)
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
    # |1> photon, excited atom, damping too weak to show (kappa t < 1e-12):
    # population swings at 2 g sqrt(2)
    trunc = 4
    g = 10.0
    p0 = np.zeros(trunc + 1)
    p0[1] = 1.0
    rho0 = oracle.build_initial_state(PhotonDistribution(p0), trunc)
    period = 2.0 * math.pi / (2.0 * g * math.sqrt(2.0))
    times = np.linspace(0.0, period, 9)
    traj = oracle.integrate_trajectory(rho0, JCParams(g=g),
                                       DampingParams(kappa=1e-12), times)
    p_plus = np.array([np.diag(r.matrix).real[0::2].sum() for r in traj])
    expected = np.cos(g * math.sqrt(2.0) * times) ** 2
    assert np.abs(p_plus - expected).max() < 1e-7


def test_undamped_collapse_revival_sum():
    # damping too weak to show: kappa t < 1e-13
    trunc = 32
    jc = JCParams(g=100.0)
    p0 = coherent_distribution(4.0, trunc)
    rho0 = oracle.build_initial_state(p0, trunc)
    times = np.linspace(0.0, 0.05, 8)
    traj = oracle.integrate_trajectory(rho0, jc, DampingParams(kappa=1e-12),
                                       times)
    obs = oracle.oracle_observables(traj, jc)
    n = np.arange(trunc + 1)
    exact = np.array([
        0.5 + 0.5 * np.sum(p0.probs * np.cos(2.0 * jc.g * t * np.sqrt(n + 1.0)))
        for t in times
    ])
    assert np.abs(obs.p_plus - exact).max() < 1e-7


#: A coupling too weak to show over these runs: (g t)^2 below 1e-23.
FAINT = JCParams(g=1e-12)


def test_thermal_stationary_state():
    trunc = 32
    damping = DampingParams(kappa=5.0, n_thermal=0.4)
    p0 = np.zeros(trunc + 1)
    p0[0] = 1.0
    rho0 = oracle.build_initial_state(PhotonDistribution(p0), trunc)
    traj = oracle.integrate_trajectory(rho0, FAINT, damping, [0.0, 3.0])
    diag = np.diag(traj[-1].matrix).real
    field = diag[0::2] + diag[1::2]
    nb = 0.4
    thermal = (nb / (1.0 + nb)) ** np.arange(trunc + 1) / (1.0 + nb)
    assert np.abs(field - thermal).max() < 1e-9


def test_energy_decay_fixes_kappa_convention():
    trunc = 32
    damping = DampingParams(kappa=5.0)
    rho0 = oracle.build_initial_state(coherent_distribution(4.0, trunc), trunc)
    traj = oracle.integrate_trajectory(rho0, FAINT, damping, [0.0, 0.1])
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
    assert np.abs(dressed_annihilation(trunc) - expected).max() < 1e-13


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
    # the bare-basis reads equal the dressed-frame elements of the dense W
    # frame on a coupled, damped, thermal trajectory with Fock coherences
    trunc = 16
    jc = JCParams(g=36000.0)
    damping = DampingParams(kappa=250.0, n_thermal=0.1)
    rho0 = oracle.build_initial_state(CatSpec(intensity=2.0, phase=1.3), trunc)
    times = np.linspace(0.0, 40.0 / jc.g, 7)
    traj = oracle.integrate_trajectory(rho0, jc, damping, times)
    obs = oracle.oracle_observables(traj, jc)
    offdiag = _dense_coherence(rho0, jc, damping, times)
    plus = 1 + 2 * np.arange(trunc)
    minus = plus + 1
    ground, edge = 0, 2 * trunc + 1
    _, rabi = dressed_basis(trunc)
    for i, rho in enumerate(traj):
        w = to_w_frame(rho, jc)
        # undo the Rabi phases: |n, +> = (psi_n^+ + psi_n^-) / sqrt(2)
        ph = np.exp(1j * jc.g * rabi * rho.time)
        d = ph.conj()[:, None] * w * ph[None, :]
        p_plus = (0.5 * (d[plus, plus] + d[minus, minus]).real.sum()
                  + d[plus, minus].real.sum() + d[edge, edge].real)
        assert abs(obs.p_plus[i] - p_plus) < 1e-14
        assert np.abs(obs.f[i] - (w[plus, plus] + w[minus, minus]).real).max() < 1e-14
        assert abs(obs.f_ground[i] - 2.0 * w[ground, ground].real) < 1e-14
        assert np.abs(offdiag[i] - w[plus, minus]).max() < 1e-14
    assert np.abs(offdiag).max() > 1e-3


def _dense_coherence(rho0, jc, damping, times):
    """The dressed-frame coherences <psi_n^+|W|psi_n^-> per sample, read by
    `dense_observables` from the dense assembly of the oracle's samples."""
    rho = dense_trajectory(rho0, jc, damping, times)
    return dense_observables(rho, times, jc)[3]


def _offdiag_decay(p0, damping, t):
    """Intra-doublet amplitudes (1/2) e^{-alpha_n t} p_n of the secular
    solution, alpha_n the `doublet_decay_rate` that P_+ runs."""
    return 0.5 * np.exp(-doublet_decay_rate(damping, np.arange(p0.probs.size))
                        * t) * p0.probs


def test_offdiag_decay_matches_oracle_in_secular_regime():
    trunc = 32
    jc = JCParams(g=36000.0)
    damping = DampingParams(kappa=8.33, n_thermal=0.1)
    p0 = coherent_distribution(3.3, trunc)
    rho0 = oracle.build_initial_state(p0, trunc)
    times = np.linspace(0.0, 0.5 / damping.kappa, 5)
    offdiag = _dense_coherence(rho0, jc, damping, times)
    scale = 0.5 * p0.probs[5]
    for i, t in enumerate(times):
        predicted = _offdiag_decay(p0, damping, t)[5]
        assert abs(abs(offdiag[i, 5]) - predicted) < 0.02 * scale


def _closed_form_gap(jc, damping, nbar, gts):
    """|closed-form P_+ - exact P_+| of an even cat at nbar on the gt grid
    gts: the oracle from the full cat, which propagates its k = 0 block
    alone; a warning the closed form may give does not change the values."""
    spec = CatSpec(intensity=nbar)
    times = gts / jc.g
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        closed = p_excited(ExperimentConfig(jc=jc, damping=damping,
                                            initial_field=spec), times)
    rho0 = oracle.build_initial_state(spec, default_truncation(nbar))
    with pytest.MonkeyPatch.context() as monkeypatch:
        reads = _block_reads(monkeypatch)
        traj = oracle.integrate_trajectory(rho0, jc, damping, times)
        exact = oracle.oracle_observables(traj, jc).p_plus
    assert reads == []
    return np.abs(closed - exact)


@pytest.mark.parametrize("preset, n_b, gap, gt_at", [
    ("benson97", 0.0, 0.0694, 22.6), ("benson97", 0.1, 0.0626, 21.7),
    ("brune96", 0.0, 0.1754, 0.8), ("brune96", 0.1, 0.1914, 0.8)])
def test_closed_form_gap_map(preset, n_b, gap, gt_at):
    # the measured error of the closed-form P_+ against the exact dynamics
    # (ROADMAP item 1) at the preset's nbar on the figures' gt grid
    preset = PRESETS[preset]
    gts = np.arange(0.0, preset.gt_max + 0.05, 0.1)
    deviation = _closed_form_gap(preset.jc(), preset.damping(n_b),
                                 preset.nbar, gts)
    worst = deviation.argmax()
    assert deviation[worst] == pytest.approx(gap, abs=1e-3)
    assert gts[worst] == pytest.approx(gt_at)


@pytest.mark.parametrize("nbar, kappa, gaps", [
    (3.3, 1e-3, (0.0120, 0.0120, 0.0120, None)),
    (3.3, 1e-2, (0.0210, 0.0227, 0.0227, 0.0713)),
    (10.0, 1e-3, (0.0063, 0.0063, 0.0380, 0.0411)),
    (10.0, 1e-2, (0.0081, 0.0435, 0.0571, 0.0571)),
    (49.0, 1e-4, (0.0030, 0.0030, 0.0224, 0.0400)),
    (49.0, 1e-3, (0.0148, 0.0281, 0.0284, 0.0284)),
    (49.0, 1e-2, (0.0000, 0.0072, 0.0837, 0.1219))])
def test_closed_form_gap_map_over_lost_photons(nbar, kappa, gaps):
    # the (nbar, kappa/g) axis of the map (ROADMAP item 1) at g = 1 and
    # n_b = 0: the largest gap up to the last gt where the mean number of
    # lost photons J = 2 kappa nbar t is at most 0.05, 0.1, 0.2 and 0.4;
    # None where J stays below the cut up to gt = 60
    gts = np.arange(0.0, 60.0 + 0.05, 0.1)
    deviation = _closed_form_gap(JCParams(g=1.0), DampingParams(kappa=kappa),
                                 nbar, gts)
    lost = 2.0 * kappa * nbar * gts
    for cut, gap in zip((0.05, 0.1, 0.2, 0.4), gaps):
        if gap is None:
            assert lost[-1] < cut
        else:
            assert deviation[lost <= cut].max() == pytest.approx(gap, abs=1e-3)


@pytest.mark.parametrize("n_b, gap, last", [
    (0.05, 0.0938, 0.0815), (0.1, 0.1652, 0.1383), (0.3, 0.3282, 0.2480)])
def test_closed_form_gap_map_over_thermal_occupation(n_b, gap, last):
    # the n_b axis of the map (ROADMAP item 1), the thermal error source:
    # benson97 rates and nbar = 49 up to kappa t = 3, where the closed form
    # gives no warning; the largest gap (at gt 9681, 9248 and 7995) and the
    # gap at the last time
    preset = PRESETS["benson97"]
    gts = np.linspace(0.0, 3.0 * preset.g / preset.kappa, 301)
    deviation = _closed_form_gap(preset.jc(), preset.damping(n_b), 49.0, gts)
    assert deviation.max() == pytest.approx(gap, abs=1e-3)
    assert deviation[-1] == pytest.approx(last, abs=1e-3)


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
    offdiag = _dense_coherence(rho0, jc, damping, times)
    scale = 0.5 * p0.probs[5]
    worst = max(
        abs(abs(offdiag[i, 5]) - _offdiag_decay(p0, damping, t)[5]) / scale
        for i, t in enumerate(times)
    )
    assert worst > 0.1


def test_w_constant_without_damping():
    # damping too weak to show: kappa t < 1e-12
    trunc = 16
    jc = JCParams(g=50.0)
    rho0 = oracle.build_initial_state(CatSpec(intensity=2.0), trunc)
    times = [0.0, 0.013, 0.2]
    traj = oracle.integrate_trajectory(rho0, jc, DampingParams(kappa=1e-12),
                                       times)
    w0 = to_w_frame(traj[0], jc)
    for rho in traj[1:]:
        w = to_w_frame(rho, jc)
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


def test_w_equation_residuals_read_only_coherence_order_zero(caplog):
    # a phi != 0 cat fills every coherence order, yet the residual and
    # max |W| read k = 0 alone: a dephased start gives the same floats, and
    # the residual propagates no block beyond the k = 0 one that the run
    # propagated for its trace check
    jc = JCParams(g=36000.0)
    damping = DampingParams(kappa=8.33, n_thermal=0.1)
    trunc = 16
    rho0 = oracle.build_initial_state(CatSpec(intensity=2.0, phase=1.1), trunc)
    dt = 0.04 / jc.g
    times = 40.0 / jc.g + dt * np.arange(-2.0, 3.0)
    caplog.set_level(logging.DEBUG, logger="catcavity")
    traj = oracle.integrate_trajectory(rho0, jc, damping, times)
    caplog.clear()
    full = oracle.w_equation_residuals(traj, jc, damping)
    assert caplog.records == []
    k0 = oracle.w_equation_residuals(
        oracle.integrate_trajectory(dephased(rho0), jc, damping, times), jc,
        damping)
    assert np.array_equal(full, k0)
    assert full[0] > 0.0


def test_w_equation_residuals_spacing_tolerance():
    # the steps of a center + dt * arange(-2, 3) window late in a run differ
    # from dt by rounding, about 3e-13 relative here, and the window passes;
    # a middle sample moved by 0.1 SPACING_RTOL dt passes too, and one moved
    # by 10 SPACING_RTOL dt is refused
    jc = JCParams(g=36000.0)
    damping = DampingParams(kappa=8.33, n_thermal=0.1)
    rho0 = oracle.build_initial_state(CatSpec(intensity=2.0), 16)
    dt = 0.04 / jc.g
    late = 300.0 / jc.g + dt * np.arange(-2.0, 3.0)
    rounding = np.abs(np.diff(late) - dt).max() / dt
    assert 1e-14 < rounding < 1e-3 * oracle.SPACING_RTOL
    for shift, accepted in ((0.0, True), (0.1, True), (10.0, False)):
        times = late.copy()
        times[2] += shift * oracle.SPACING_RTOL * dt
        window = oracle.integrate_trajectory(rho0, jc, damping, times)
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
    traj = oracle.integrate_trajectory(rho0, jc, damping, [t_a])
    weight = atom_sector(traj, "+")[1][-1]
    pp = oracle.joint_probability_oracle(rho0, jc, damping, t_a, t_b, "+", "+")
    pm = oracle.joint_probability_oracle(rho0, jc, damping, t_a, t_b, "+", "-")
    assert pp + pm == pytest.approx(weight, abs=1e-7)


def test_oracle_rejects_unknown_outcome():
    jc = JCParams(g=24000.0)
    damping = DampingParams(kappa=2500.0, n_thermal=0.1)
    rho0 = oracle.build_initial_state(PhotonDistribution(np.eye(9)[1]), 8)
    for s1, s2 in (("+", "x"), ("x", "+")):
        with pytest.raises(ValueError):
            oracle.joint_probability_oracle(rho0, jc, damping, 1e-4, 2e-4,
                                            s1, s2)


def _joint_full_blocks(rho0, jc, damping, t_a, t_b, s1, s2):
    """Joint probability with every block of the atom sector propagated,
    and the second passage's start with the whole conditioned field."""
    traj_a = oracle.integrate_trajectory(rho0, jc, damping, [t_a])
    field = atom_sector(traj_a, s1)[0][-1]
    rho_b0 = oracle.DensityMatrix(matrix=np.kron(field, oracle._EXCITED),
                                  time=t_a)
    traj_b = oracle.integrate_trajectory(rho_b0, jc, damping, [t_b])
    return atom_sector(traj_b, s2)[1][-1], rho_b0


def test_joint_probability_oracle_matches_full_blocks(caplog):
    # a phi != 0 cat fills every coherence order; the conditioned field of
    # the full run keeps Fock coherences that the dephased run never forms
    trunc = 16
    jc = JCParams(g=24000.0)
    damping = DampingParams(kappa=2500.0, n_thermal=0.1)
    rho0 = oracle.build_initial_state(CatSpec(intensity=2.0, phase=1.1), trunc)
    t_a, t_b = 5.0 / jc.g, 12.0 / jc.g
    off_k0 = block_labels(trunc, jc) != 0
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
            # one block, k = 0, of 4 N + 2 states per leg, and one expm
            # each, on the 3 N + 2 real parts of its Hermitian closure
            assert [r.getMessage() for r in caplog.records] == [
                f"oracle: truncation {trunc}, propagated block sizes "
                f"[{4 * trunc + 2}], expm builds 1 of sizes "
                f"[{3 * trunc + 2}]"] * 2


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


@pytest.mark.parametrize("phase, n_b", [(0.0, 0.0), (1.1, 0.13), (2.9, 0.5)])
def test_uncoupled_run_keeps_the_atom_excited(phase, n_b):
    # with the coupling off the Liouvillian has no entry between a (+, +)
    # position and any other, so a start in |+><+| stays there and
    # branch_coherence_trajectory runs the "+" sector alone; the dense
    # reference run of the cat keeps every "-" entry exactly zero
    trunc = 14
    dim = 2 * (trunc + 1)
    damping = DampingParams(kappa=8.33, n_thermal=n_b)
    coo = oracle.liouvillian(None, damping, trunc).tocoo()
    row_plus, col_plus = (np.isin(coo.row, _plus_plus(trunc)),
                          np.isin(coo.col, _plus_plus(trunc)))
    assert row_plus.any()
    assert np.array_equal(row_plus, col_plus)
    rho0 = oracle.build_initial_state(CatSpec(intensity=1.0, phase=phase),
                                      trunc)
    rho = dense_trajectory(rho0, None, damping,
                           np.linspace(0.0, damping.t_cav, 6))
    plus = np.zeros((dim, dim), dtype=bool)
    plus[0::2, 0::2] = True
    assert not rho[:, ~plus].any()
    assert np.abs(np.trace(rho, axis1=1, axis2=2) - 1.0).max() < 1e-12


def _plus_plus(trunc):
    """The vec(rho) positions (2 n, 2 m) of the atom's + sector."""
    n = 2 * np.arange(trunc + 1)
    return (n[:, None] * 2 * (trunc + 1) + n[None, :]).ravel()


def test_branch_coherence_decays_faster_than_energy():
    spec = CatSpec(intensity=4.0)
    damping = DampingParams(kappa=8.33)
    t_half = damping.t_cav / (2.0 * 4.0)
    coh = oracle.branch_coherence_trajectory(spec, damping,
                                             [0.0, t_half, 4.0 * t_half], 32)
    assert coh[1] < 0.8 * coh[0]
    assert coh[2] < 0.1 * coh[0]


#: Non-uniform times that start at 0 and repeat one; three distinct steps.
FIELD_TIMES = np.array([0.0, 0.0, 0.02, 0.05, 0.05, 0.08, 0.2])


@pytest.mark.parametrize("phase", [0.0, 1.1])
@pytest.mark.parametrize("n_b", [0.0, 0.3])
def test_field_only_run_matches_dense_reference(phase, n_b):
    # the branch coherence of the field-only run against the overlap read
    # from the "+" sector of the dense reference run with the coupling off,
    # and against the read of one sample at a time, each diagonal
    # propagated alone; the even cat fills no odd diagonal
    trunc = 12
    spec = CatSpec(intensity=0.8, phase=phase)
    damping = DampingParams(kappa=2.0, n_thermal=n_b)
    rho0 = oracle.build_initial_state(spec, trunc)
    field = dense_trajectory(rho0, None, damping, FIELD_TIMES)[:, 0::2, 0::2]
    expected = _branch_overlap(field, spec, damping, FIELD_TIMES)
    got = oracle.branch_coherence_trajectory(spec, damping, FIELD_TIMES, trunc)
    assert np.abs(got - expected).max() < 1e-13
    loop = branch_coherence_loop(spec, damping, FIELD_TIMES, trunc)
    assert np.abs(got - loop).max() < 1e-14
    assert np.ptp(loop) > 0.04
    assert got[0] == got[1] and got[3] == got[4]
    assert np.abs(field[-1] - field[0]).max() > 0.05
    odd = np.diagonal(field, 1, axis1=1, axis2=2)
    assert (not odd.any()) == (phase == 0.0)


@pytest.mark.parametrize("phase, sizes", [(0.0, [9, 7, 5, 3, 1]),
                                          (1.1, list(range(9, 0, -1)))],
                         ids=["even", "phi1.1"])
def test_field_only_run_logs_its_diagonals(caplog, monkeypatch, phase, sizes):
    # one INFO line: the truncation, the size of each filled diagonal and
    # one expm per diagonal and distinct step, three steps here
    built = _expm_sizes(monkeypatch)
    caplog.set_level(logging.INFO, logger="catcavity")
    oracle.branch_coherence_trajectory(CatSpec(intensity=0.3, phase=phase),
                                       DampingParams(kappa=2.0), FIELD_TIMES,
                                       8)
    assert sorted(built) == sorted(sizes * 3)
    assert [r.getMessage() for r in caplog.records] == [
        f"oracle: truncation 8, field diagonal sizes {sizes}, expm builds "
        f"{3 * len(sizes)} of sizes {sizes * 3}"]


def test_field_only_run_fills_diagonals_from_non_zero_amplitudes(caplog):
    # a phase of two of the smallest subnormals leaves the odd amplitudes
    # of this cat at zero or one subnormal: every product on an odd
    # diagonal underflows to 0, yet each diagonal with non-zero amplitudes
    # at both ends is filled and starts at those zeros, so the coherence
    # is the even cat's up to rounding
    trunc = 40
    spec = CatSpec(intensity=12.0, phase=2 * np.nextafter(0.0, 1.0))
    amp = oracle.cat_state_vector(spec, trunc)
    n, m = np.triu_indices(trunc + 1)
    odd = (m - n) % 2 == 1
    assert amp[1::2].any() and not (amp[n] * amp[m].conj())[odd].any()
    held = np.flatnonzero(amp)
    filled = np.unique(np.abs(held[:, None] - held))
    assert (filled % 2).any()
    damping = DampingParams(kappa=0.4, n_thermal=0.1)
    times = np.linspace(0.0, 2.0, 6)
    caplog.set_level(logging.INFO, logger="catcavity")
    got = oracle.branch_coherence_trajectory(spec, damping, times, trunc)
    sizes = (trunc + 1 - filled).tolist()
    assert caplog.records[0].getMessage().startswith(
        f"oracle: truncation {trunc}, field diagonal sizes {sizes}, ")
    even = oracle.branch_coherence_trajectory(CatSpec(intensity=12.0),
                                              damping, times, trunc)
    assert np.allclose(got, even, rtol=1e-12, atol=0.0)


def test_field_only_run_keeps_its_checks(monkeypatch):
    # a cat the truncation cuts, and a propagator that returns NaN, whose
    # trace drift must not pass as zero
    damping = DampingParams(kappa=2.0)
    with pytest.raises(TruncationError, match="retains norm"):
        oracle.branch_coherence_trajectory(CatSpec(intensity=4.0), damping,
                                           [0.0, 0.1], 8)
    monkeypatch.setattr(oracle, "expm", lambda a: np.full(a.shape, math.nan))
    with pytest.raises(ConsistencyError, match="trace drift"):
        oracle.branch_coherence_trajectory(CatSpec(intensity=1.0), damping,
                                           [0.0, 0.1], 16)


def test_field_only_run_holds_no_sample_on_a_long_grid():
    # 2001 samples at N = 32 of a cat that fills all 33 diagonals: every
    # sample of every diagonal would take 17 MB, and the probes and sums
    # that the run holds about 1.6 MB
    spec = CatSpec(intensity=4.0, phase=1.1)
    damping = DampingParams(kappa=0.4, n_thermal=0.1)
    times = np.linspace(0.0, 2.0, 2001)
    expected = oracle.branch_coherence_trajectory(spec, damping, times[:3], 32)
    tracemalloc.start()
    try:
        got = oracle.branch_coherence_trajectory(spec, damping, times, 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.abs(got[:3] - expected).max() < 1e-14
    assert peak < 4e6


#: Runs the command in its arguments as its child and prints, as JSON, the
#: child's standard output and its peak RSS in MB; the child of a small
#: interpreter, so that the RSS of the test process does not count.
PEAK_RSS = r'''
import json, resource, subprocess, sys
out = subprocess.run(sys.argv[1:], check=True, stdout=subprocess.PIPE,
                     text=True).stdout
peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
print(json.dumps({"stdout": out, "peak_mb": peak_mb}))
'''


def _fresh_peak_rss(*args):
    """The standard output and the peak RSS in MB of
    `python -W error::RuntimeWarning <args>` in a fresh interpreter, which
    imports this tree's sources and `tests/references.py`."""
    paths = (Path(oracle.__file__).resolve().parents[1],
             Path(__file__).resolve().parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths)))
    run = subprocess.run(
        [sys.executable, "-c", PEAK_RSS, sys.executable, "-W",
         "error::RuntimeWarning", *args],
        env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout)
    return got["stdout"], got["peak_mb"]


def test_oracle_command_at_the_paper_point_peaks_below_300_mb(tmp_path):
    # `catcavity oracle` at nbar = 49 (N = 120) with 501 samples
    _, peak_mb = _fresh_peak_rss(
        "-m", "catcavity.cli", "oracle", "--nbar", "49", "--nb", "0.1",
        "--samples", "501", "--out", str(tmp_path))
    print(f"oracle --nbar 49 --samples 501: peak RSS {peak_mb:.0f} MB")
    assert peak_mb <= 300.0


#: Runs the oracle command at n_b = 0.13 and then 0.05, into the two
#: directories in its arguments.
ORACLE_TWICE = r'''
import sys

from catcavity.cli import main

for nb, out in zip(("0.13", "0.05"), sys.argv[1:]):
    assert main(["oracle", "--nbar", "4", "--nb", nb, "--t-max", "0.002",
                 "--samples", "9", "--out", out]) == 0
'''


def test_oracle_command_writes_the_same_bytes_warm_and_cold(tmp_path):
    # here n_b = 0.05 runs first and 0.13 reuses the structure it kept; in
    # a fresh interpreter 0.13 builds that structure and 0.05 reuses it;
    # each CSV has the same bytes either way
    for nb in ("0.05", "0.13"):
        assert main(["oracle", "--nbar", "4", "--nb", nb, "--t-max", "0.002",
                     "--samples", "9", "--out", str(tmp_path / nb)]) == 0
    _fresh_peak_rss("-c", ORACLE_TWICE, str(tmp_path / "fresh0.13"),
                    str(tmp_path / "fresh0.05"))
    for nb in ("0.05", "0.13"):
        warm = (tmp_path / nb / "oracle.csv").read_bytes()
        assert warm == (tmp_path / f"fresh{nb}" / "oracle.csv").read_bytes()
        assert warm.count(b"\n") > 9 * 33


#: The undephased nbar = 49 cat (N = 120) at 501 samples: what the
#: trajectory keeps after a k = 0 read (its traced live memory, the
#: difference before and after it is deleted), and whether P_+, F_n and
#: F_-1 equal those of a run from the k = 0 part of rho0.
UNDEPHASED = r'''
import gc, json, tracemalloc

import numpy as np

from catcavity import CatSpec, DampingParams, default_truncation, oracle
from catcavity.presets import PRESETS
from references import dephased

preset = PRESETS["benson97"]
jc = preset.jc()
damping = DampingParams(kappa=preset.kappa, n_thermal=0.1)
trunc = default_truncation(49.0)
rho0 = oracle.build_initial_state(CatSpec(intensity=49.0), trunc)
times = np.linspace(0.0, 0.5 / preset.kappa, 501)
tracemalloc.start()
traj = oracle.integrate_trajectory(rho0, jc, damping, times)
full = oracle.oracle_observables(traj, jc)
gc.collect()
held = tracemalloc.get_traced_memory()[0]
del traj
gc.collect()
kept_mb = (held - tracemalloc.get_traced_memory()[0]) / 1e6
tracemalloc.stop()
k0 = oracle.oracle_observables(
    oracle.integrate_trajectory(dephased(rho0), jc, damping, times), jc)
same = all(np.array_equal(getattr(full, name), getattr(k0, name))
           for name in ("p_plus", "f", "f_ground"))
print(json.dumps({"truncation": trunc, "kept_mb": kept_mb, "same": same}))
'''


def test_undephased_paper_point_cat_keeps_little_and_reads_as_dephased():
    # the full even cat fills 61 blocks at N = 120, yet its k = 0 read keeps
    # at most 12 MB and reads the same floats as the dephased run
    out, peak_mb = _fresh_peak_rss("-c", UNDEPHASED)
    got = json.loads(out)
    print(f"undephased nbar = 49 cat, N = {got['truncation']}, 501 samples: "
          f"peak RSS {peak_mb:.0f} MB, trajectory keeps "
          f"{got['kept_mb']:.1f} MB after a k = 0 read")
    assert got["same"]
    assert got["kept_mb"] <= 12.0
    assert peak_mb <= 300.0


def test_oracle_imports_no_closed_form_module():
    # the oracle checks the closed form, so it must not share its code, not
    # even through the package root, which imports the closed form
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.module is not None, "import from the package root"
            imported.update(node.module.split("."))
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                imported.update(alias.name.split("."))
    assert not imported & {"observables", "damping", "resummation"}
