"""Reference forms that only the tests use.

Independent evaluations the library itself does not need: the rates of the
F*_n recurrence, the alternating double-sum form of F*_{-1},
finite-difference residuals of the F*_n recurrence, the two atom passages
of the closed-form observables as a loop over times and fields, the
resummed P_+ as a loop over its revival orders, the matrix
of the creation operator in the dressed basis, the oracle start of any pure
field state, a density-matrix sanity check, the k = 0 part of an oracle
state and the dense W frame of one, the atom sector of a trajectory, the
oracle's Liouvillian as triplets of the whole matrix, its block labels with
the coupling on or off, its split into filled blocks by one sort of the
labels, its propagation by complex matrix exponentials of the blocks of
that matrix, its earlier dense assembly of every sample and dense read
of the observables, and the branch coherence read one sample at a time.
"""

import math

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.special import gammaln

from catcavity import oracle
from catcavity.damping import _unitarity_ground, f_star, f_star_ground
from catcavity.dressed import dressed_basis
from catcavity.errors import ConsistencyError
from catcavity.observables import ETA_EPSILON
from catcavity.params import JCParams


def rate_arrays(damping, truncation):
    """Rates (alpha_n, beta_n, gamma_n) of the dressed-diagonal recurrence.

    Arrays over n = 0..truncation; truncation = -1 gives the ground-sector
    rates (alpha_{-1}, beta_{-1}, gamma_{-1}) = (2 kappa n_b,
    2 kappa (n_b + 1), 0) as scalars.
    """
    k, nb = damping.kappa, damping.n_thermal
    if truncation == -1:
        return 2.0 * k * nb, 2.0 * k * (nb + 1.0), 0.0
    if truncation < -1:
        raise ValueError("truncation must be >= -1")
    n = np.arange(truncation + 1)
    alpha = 2.0 * k * (2.0 * nb * (n + 1.0) + n + 0.5)
    beta = 2.0 * k * (nb + 1.0) * (n + 1.5)
    gamma = 2.0 * k * nb * (n + 0.5)
    return alpha, beta, gamma


def f_star_ground_double_sum(p0, damping, t):
    """Explicit alternating double-sum form of F*_{-1}(t).

    Accurate only at small truncation (the inner sum cancels catastrophically
    for N beyond ~20); retained as an independent cross-check of the
    unitarity-based evaluation.
    """
    probs = np.asarray(p0, dtype=float)
    k, nb = damping.kappa, damping.n_thermal
    log_ghalf = gammaln(1.5)
    terms = []
    for j, pj in enumerate(probs):
        if pj == 0.0:
            continue
        for m in range(j + 1):
            log_mag = (
                gammaln(j + 1.5)
                - gammaln(j - m + 1.0)
                - gammaln(m + 1.0)
                - log_ghalf
                - k * (2.0 * m + 1.0) * (nb + 1.0) * t
                - math.log(m + 0.5)
            )
            terms.append((-1.0) ** m * math.exp(log_mag) * pj)
    return 2.0 - math.exp(-2.0 * k * nb * t) * math.fsum(terms)


def residual_diagnostics(p0, damping, t, dt):
    """Finite-difference residuals of the F*_n recurrence and the F*_{-1} ODE.

    Returns (max_recurrence_residual, ground_ode_residual).  The recurrence
    residual includes the known model error gamma_n (F*_n - F*_{n-1}) on the
    right-hand side, so it measures only numerical error; both residuals
    vanish identically at n_b = 0.
    """
    probs = np.asarray(p0, dtype=float)
    alpha, beta, gamma = rate_arrays(damping, probs.size - 1)
    if dt <= 0 or t - dt < 0:
        raise ValueError("need 0 < dt <= t for centered differences")
    if dt * alpha.max() >= 1e-2:
        raise ValueError("dt too large for centered differences: dt*max(alpha) >= 1e-2")

    f_lo = f_star(probs, damping, t - dt)
    f_mid = f_star(probs, damping, t)
    f_hi = f_star(probs, damping, t + dt)
    g_lo = f_star_ground(probs, damping, t - dt)
    g_mid = f_star_ground(probs, damping, t)
    g_hi = f_star_ground(probs, damping, t + dt)

    fdot = (f_hi - f_lo) / (2.0 * dt)
    f_up = np.append(f_mid[1:], 0.0)  # F*_{N+1} = 0 closes the recurrence
    f_down = np.concatenate(([g_mid], f_mid[:-1]))
    residual = (
        fdot + alpha * f_mid - beta * f_up - gamma * f_down
        - gamma * (f_mid - f_down)
    )

    a_g, b_g, _ = rate_arrays(damping, -1)
    gdot = (g_hi - g_lo) / (2.0 * dt)
    ground_residual = abs(
        gdot + a_g * g_mid - b_g * f_mid[0]
        - 4.0 * damping.kappa * damping.n_thermal
    )
    return float(np.abs(residual).max()), float(ground_residual)


def _passage(config, field, t):
    """(F*_n(t), e^{-alpha_n t} cos(2 g t sqrt(n+1)) p_n) of one field, with
    alpha_n from `rate_arrays`, not from the library."""
    n = np.arange(field.size)
    alpha = rate_arrays(config.damping, field.size - 1)[0]
    factor = np.exp(-alpha * t) * np.cos(2.0 * config.jc.g * t
                                         * np.sqrt(n + 1.0))
    return f_star(field, config.damping, t), factor * field


def passage_reference(config, t_a, t_bs):
    """(P_+(t_a), [{s1: (P(s1), P(s1, +))} for a second atom at each t_b of
    `t_bs`]), from one `f_star` per passage of one field at one time; the
    first passage is shared by every t_b.

    The arithmetic of the closed-form observables, written out per time
    and field in the same expression order, so that their arrays must equal
    it bit for bit.
    """
    probs = config.distribution().probs
    f, osc = _passage(config, probs, t_a)
    ground = _unitarity_ground(probs, f)
    p_plus = 0.5 - 0.25 * ground + 0.5 * osc.sum()
    conditioned = {}
    for s1 in "+-":
        if s1 == "+":
            cond = 0.5 * (f + osc)
        else:
            cond = np.empty_like(f)
            cond[0] = 0.5 * ground
            cond[1:] = 0.5 * (f[:-1] - osc[:-1])
        cond = np.clip(cond, 0.0, None)
        conditioned[s1] = cond, cond.sum()
    outcomes = []
    for t_b in t_bs:
        outcomes.append({})
        for s1, (cond, weight) in conditioned.items():
            f_b, osc_b = _passage(config, cond, t_b - t_a)
            value = 0.5 * f_b.sum() + 0.5 * osc_b.sum()
            outcomes[-1][s1] = weight, np.minimum(np.maximum(value, 0.0),
                                                  weight)
    return p_plus, outcomes


def eta_reference(p_plus, joint_plus, joint_minus):
    """eta = P_++/P_+ - P_-+/P_-, NaN where P_+ or P_- is below ETA_EPSILON."""
    p_minus = 1.0 - p_plus
    if p_plus < ETA_EPSILON or p_minus < ETA_EPSILON:
        return math.nan
    return joint_plus / p_plus - joint_minus / p_minus


def resummed_loop_reference(params, t):
    """The resummed P_+ of `params` at the times `t` as one collapse wave
    plus a loop over nu = 1, ..., max_order, each step evaluating its two
    revival waves alone: + w_nu - cos(phase) w_{nu - 1/2}.  Scalar math
    and the expression order of the library's waves, so that its one
    (waves, times) array must equal this bit for bit."""
    t = np.asarray(t, dtype=float)
    k, nb = params.damping.kappa, params.damping.n_thermal
    alpha_nbar = 2.0 * k * (2.0 * nb * (params.nbar + 1.0) + params.nbar
                            + 0.5)
    gt = params.g * t

    def revival(nu):
        argument = gt * gt / (4.0 * math.pi**2 * nu**2)
        log_poisson = (argument * math.log(params.nbar) - params.nbar
                       - gammaln(argument + 1.0))
        envelope = np.exp(log_poisson) * gt / (
            math.pi * math.sqrt(2.0 * nu**3))
        return envelope * np.cos(gt * gt / (2.0 * math.pi * nu)
                                 - math.pi / 4.0)

    waves = np.exp(-gt * gt / 2.0) * np.cos(2.0 * gt
                                            * math.sqrt(params.nbar))
    for nu in range(1, params.max_order + 1):
        waves = waves + revival(nu)
        waves = waves - math.cos(params.phase) * revival(nu - 0.5)
    out = (0.5 * np.exp(-2.0 * k * nb * t)
           + 0.5 * np.exp(-alpha_nbar * t) * waves)
    return float(out) if out.ndim == 0 else out


def dressed_creation(truncation):
    """Matrix of a* in the column order of `dressed.dressed_basis`, from the
    resonant relations

        a* |0, ->    = (|psi_0^+> - |psi_0^->) / sqrt(2),
        a* |psi_n^s> = (1/2)(sqrt(n+1) + s sqrt(n+2)) |psi_{n+1}^+>
                       + (1/2)(sqrt(n+1) - s sqrt(n+2)) |psi_{n+1}^->

    for n < N - 1, and a* |psi_{N-1}^s> = sqrt(N/2) |N, +> once the
    truncation drops |N+1, ->; a* takes |N, +> out of the truncated space.
    """
    dim = 2 * (truncation + 1)
    c = np.zeros((dim, dim))
    r = 1.0 / math.sqrt(2.0)
    c[1, 0], c[2, 0] = r, -r
    n = np.arange(truncation - 1)
    lo, hi = np.sqrt(n + 1.0), np.sqrt(n + 2.0)
    plus, minus = 1 + 2 * n, 2 + 2 * n
    c[plus + 2, plus] = c[minus + 2, minus] = 0.5 * (lo + hi)
    c[minus + 2, plus] = c[plus + 2, minus] = 0.5 * (lo - hi)
    c[dim - 1, dim - 3:dim - 1] = math.sqrt(truncation / 2.0)
    return c


def pure_state(amplitudes):
    """The oracle's `DensityMatrix` at time 0 of the pure field state with
    the Fock `amplitudes` and the atom excited."""
    a = np.asarray(amplitudes, dtype=complex)
    return oracle.DensityMatrix(
        np.kron(np.outer(a, a.conj()), oracle._EXCITED), time=0.0)


def validate_density_matrix(rho):
    """Raise ConsistencyError unless rho.matrix is Hermitian (to 1e-10), of
    unit trace (to 1e-8) and positive (eigenvalues above -1e-8)."""
    m = rho.matrix
    if np.abs(m - m.conj().T).max() > 1e-10:
        raise ConsistencyError("density matrix not Hermitian")
    if abs(np.trace(m).real - 1.0) > 1e-8:
        raise ConsistencyError("density matrix trace drifted")
    if np.linalg.eigvalsh(m).min() < -1e-8:
        raise ConsistencyError("density matrix not positive")


def dephased(rho):
    """The `oracle.DensityMatrix` rho with every entry of coherence order
    k != 0 set to zero: the start whose run the k = 0 reads of a full run
    must equal, since the k = 0 block evolves on its own."""
    keep = (block_labels(rho.truncation, JCParams(g=1.0)) == 0).reshape(
        rho.matrix.shape)
    return oracle.DensityMatrix(matrix=np.where(keep, rho.matrix, 0.0),
                                time=rho.time)


def atom_sector(traj, outcome):
    """The unnormalized field matrices <s|rho|s> of every sample of the
    `oracle.Trajectory` traj after the atom is found in `outcome`, stacked
    (samples, N + 1, N + 1), read through `entries`, and their traces."""
    sector = 2 * np.arange(traj.truncation + 1) + (outcome == "-")
    block = traj.entries(sector[:, None], sector[None, :])
    return block, np.trace(block, axis1=1, axis2=2).real


def to_w_frame(rho, jc):
    """W(t) of the `oracle.DensityMatrix` rho at t = rho.time, as a dense
    array in the column order of `dressed.dressed_basis`: at resonance,
    rho in the dressed basis conjugated by the diagonal phases
    e^{i g sqrt(n+1) t} of the coupling Hamiltonian."""
    u, rabi = dressed_basis(rho.truncation)
    phases = np.exp(1j * (jc.g * rabi) * rho.time)
    return phases[:, None] * (u.T @ rho.matrix @ u) * phases.conj()[None, :]


def liouvillian_triplets(jc, damping, truncation):
    """The Liouvillian of `oracle.liouvillian` as (rows, cols, values)
    arrays over the whole (2N + 2)^2 vec(rho), each term written for every
    pair (i, j) at once; the library builds its triplets from the positions
    instead, so the two constructions share no code.

    No (row, col) pair appears twice, so no entry is a sum; a value may be
    zero, where the diagonal has nothing to add.
    """
    dim = 2 * (truncation + 1)
    every = np.arange(dim)
    vec = every[:, None] * dim + every[None, :]  # position of (i, j)
    diag = np.zeros((dim, dim))
    rows, cols, vals = [vec.ravel()], [vec.ravel()], []
    lo = np.arange(2 * truncation)  # |n, s> with n < N; a takes lo + 2 to lo
    root = np.sqrt(lo // 2 + 1.0)
    if jc is not None:
        # g sqrt(n + 1) between |n, +> and |n + 1, ->, both ways
        plus = lo[0::2]
        h_row = np.r_[plus, plus + 3]
        h_col = np.r_[plus + 3, plus]
        h_val = 1j * jc.g * np.tile(root[0::2], 2)
        rows += [vec[:, h_col].ravel(), vec[h_row, :].ravel()]
        cols += [vec[:, h_row].ravel(), vec[h_col, :].ravel()]
        vals += [np.tile(h_val, dim), -np.repeat(h_val, dim)]
    k, nb = damping.kappa, damping.n_thermal
    for rate, left, right in ((k * (nb + 1.0), lo, lo + 2),
                              (k * nb, lo + 2, lo)):
        if rate > 0:
            # J = sum root |left><right|, so J*J = diag(root^2) on right
            number = np.zeros(dim)
            number[right] = root ** 2
            diag -= rate * (number[:, None] + number[None, :])
            rows.append(vec[np.ix_(left, left)].ravel())
            cols.append(vec[np.ix_(right, right)].ravel())
            vals.append((2.0 * rate * np.outer(root, root)).ravel())
    vals.insert(0, diag.ravel())
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def liouvillian(jc, damping, truncation):
    """`liouvillian_triplets` as a CSR matrix without stored zeros, the
    form `oracle.liouvillian` returns."""
    rows, cols, vals = liouvillian_triplets(jc, damping, truncation)
    dim = 2 * (truncation + 1)
    lind = sp.csr_matrix((vals, (rows, cols)), shape=(dim * dim,) * 2)
    lind.eliminate_zeros()
    return lind


def block_labels(truncation, jc):
    """A label per entry of row-major vec(rho) that the Liouvillian never
    mixes, from the excitation number m = n + [s = +] of each basis state:
    the coherence order k = m_i - m_j with the coupling on, and
    4 k + 2 s_i + s_j (s = 0 for +, 1 for -) with it off (jc None), where
    the atom states are conserved too.  Either way label < 0 exactly where
    k < 0."""
    s = np.arange(2 * (truncation + 1)) % 2
    m = np.arange(2 * (truncation + 1)) // 2 + 1 - s
    k = m[:, None] - m[None, :]
    if jc is not None:
        return k.ravel()
    return (4 * k + 2 * s[:, None] + s[None, :]).ravel()


def atom_phases(truncation):
    """d with vec(S* rho S) = d * vec(rho) for S = 1_field x diag(1, i),
    over every position: d_(i,j) = conj(s_i) s_j, each exactly 1, i or -i;
    the library computes it at the positions it reads."""
    s = np.tile([1.0, 1j], truncation + 1)
    return np.outer(s.conj(), s).ravel()


def block_generator(coo, phase, idx):
    """The dense block at the ascending vec(rho) positions `idx` of the
    COO Liouvillian `coo`, rotated into the atom-phase frame by `phase`
    (`atom_phases`); a float array where every rotated entry is real."""
    local = np.full(phase.size, -1)
    local[idx] = np.arange(idx.size)
    nz = local[coo.row] >= 0
    row, col = coo.row[nz], coo.col[nz]
    gen = coo.data[nz] * phase[row] * phase[col].conj()
    if not gen.imag.any():
        gen = gen.real
    dense = np.zeros((idx.size, idx.size), dtype=gen.dtype)
    dense[local[row], local[col]] = gen
    return dense


def hermitian_closure(idx, dim):
    """For ascending vec(rho) positions `idx` that hold the transpose (j, i)
    of each of their (i, j): the index into idx of each (i, j) with i <= j,
    ascending, and of its transpose; None for any other set."""
    i, j = idx // dim, idx % dim
    twin = j * dim + i
    if not np.isin(twin, idx).all():
        return None
    upper = np.flatnonzero(i <= j)
    return upper, np.searchsorted(idx, twin[upper])


def fold_block(dense, upper, twin):
    """The real block `dense` on its Hermitian closure, one column at a
    time: the symmetric generator, with column G[:, a] for a diagonal
    position and G[:, a] + G[:, twin(a)] for a pair, on the rows `upper`;
    the antisymmetric one, with column G[:, a] - G[:, twin(a)], on the rows
    and columns of the pairs."""
    sym = np.empty((upper.size, upper.size))
    anti = []
    for c, (a, t) in enumerate(zip(upper.tolist(), twin.tolist())):
        sym[:, c] = dense[upper, a] if a == t else dense[upper, a] + dense[
            upper, t]
        if a != t:
            anti.append(dense[upper, a] - dense[upper, t])
    pair = upper != twin
    return sym, np.array(anti).reshape(-1, upper.size).T[pair]


def complex_block_trajectory(rho0, jc, damping, times):
    """rho at each time as one (times, dim, dim) array, from one complex
    `scipy.linalg.expm` per distinct step of each filled block of
    `liouvillian` with k >= 0, sliced from the sparse matrix in the bare
    basis; block -k is the conjugate transpose of block k.
    """
    trunc = rho0.truncation
    dim = 2 * (trunc + 1)
    label = block_labels(trunc, jc)
    lind = liouvillian(jc, damping, trunc)
    levels, step_index = oracle._step_groups(np.diff(np.r_[rho0.time, times]))
    v0 = rho0.matrix.reshape(-1)
    out = np.zeros((len(times), dim * dim), dtype=complex)
    for value in np.unique(label[label >= 0]):
        idx = np.flatnonzero(label == value)
        if not v0[idx].any():
            continue
        gen = lind[idx][:, idx].toarray()
        props = expm(levels[:, None, None] * gen)
        v = v0[idx]
        for i, j in enumerate(step_index):
            if j >= 0:
                v = props[j] @ v
            out[i, idx] = v
    out = out.reshape(len(times), dim, dim)
    lower = (label < 0).reshape(dim, dim)
    out[:, lower] = out.transpose(0, 2, 1).conj()[:, lower]
    return out


def _propagate(gen, v, levels, step_index):
    """v after each step, from one batched expm of `gen` over the distinct
    steps; a complex v under a real `gen` runs as two real columns.  A zero
    v stays zero without an expm."""
    if not v.any():
        return np.zeros((step_index.size,) + v.shape, dtype=v.dtype)
    props = expm(levels[:, None, None] * gen)
    if gen.dtype.kind == "f" and v.dtype.kind == "c":
        v = v.view(float).reshape(v.size, 2)
    block = np.empty((step_index.size,) + v.shape, dtype=v.dtype)
    for i, j in enumerate(step_index):
        if j >= 0:
            v = props[j] @ v
        block[i] = v
    if block.ndim == 3:
        return block.view(complex).reshape(step_index.size, -1)
    return block


def dense_trajectory(rho0, jc, damping, times):
    """rho at each time as one (times, dim, dim) array, assembled densely:
    each filled block with k >= 0 scattered from the sparse `liouvillian`
    (through COO) into a dense generator in the atom-phase frame
    (`block_generator`), one batched expm per block over the distinct
    steps, every propagated block scattered into a dense complex matrix per
    sample, and the k < 0 half filled as the conjugate transpose.  A real
    block closed under transposition runs on its Hermitian closure
    (`fold_block`): the real parts of its Hermitian part on the symmetric
    generator, the imaginary parts on the antisymmetric one.
    """
    trunc = rho0.truncation
    dim = 2 * (trunc + 1)
    label = block_labels(trunc, jc)
    phase = atom_phases(trunc)
    levels, step_index = oracle._step_groups(np.diff(np.r_[rho0.time, times]))
    coo = liouvillian(jc, damping, trunc).tocoo()
    coo.sum_duplicates()
    v0 = rho0.matrix.reshape(-1)
    out = np.zeros((len(times), dim * dim), dtype=complex)
    for value in np.unique(label[label >= 0]):
        idx = np.flatnonzero(label == value)
        if not v0[idx].any():
            continue
        dense = block_generator(coo, phase, idx)
        v = v0[idx] * phase[idx]
        closure = (hermitian_closure(idx, dim) if dense.dtype.kind == "f"
                   else None)
        if closure is None:
            rotated = _propagate(dense, v, levels, step_index)
        else:
            upper, twin = closure
            pair = upper != twin
            sym, anti = fold_block(dense, upper, twin)
            x = _propagate(sym, 0.5 * (v.real[upper] + v.real[twin]),
                           levels, step_index)
            y = _propagate(anti, 0.5 * (v.imag[upper[pair]]
                                        - v.imag[twin[pair]]),
                           levels, step_index)
            rotated = np.zeros((len(times), idx.size), dtype=complex)
            rotated.real[:, upper] = x
            rotated.real[:, twin] = x
            rotated.imag[:, upper[pair]] = y
            rotated.imag[:, twin[pair]] = -y
        out[:, idx] = rotated * phase[idx].conj()
    out = out.reshape(len(times), dim, dim)
    lower = (label < 0).reshape(dim, dim)
    out[:, lower] = out.transpose(0, 2, 1).conj()[:, lower]
    return out


def dense_observables(rho, times, jc):
    """(p_plus, f, f_ground, offdiag) read from a (times, dim, dim) stack of
    dense density matrices: the first three in the expression order of
    `oracle.oracle_observables`, and offdiag the dressed-frame coherence
    <psi_n^+|W|psi_n^-> = (1/2) e^{2 i g sqrt(n+1) t}
    (rho_aa - rho_bb + rho_ba - rho_ab), a = |n, +>, b = |n+1, ->, which
    only the tests read."""
    trunc = rho.shape[1] // 2 - 1
    diag = np.diagonal(rho, axis1=1, axis2=2).real
    a = 2 * np.arange(trunc)
    b = a + 3
    rho_aa, rho_bb = diag[:, a], diag[:, b]
    phases = np.exp(2j * jc.g * np.sqrt(np.arange(1.0, trunc + 1.0))
                    * times[:, None])
    offd = 0.5 * phases * (rho_aa - rho_bb + rho[:, b, a] - rho[:, a, b])
    return diag[:, 0::2].sum(axis=1), rho_aa + rho_bb, 2.0 * diag[:, 1], offd


def branch_coherence_loop(spec, damping, times, truncation):
    """The branch coherence of `oracle.branch_coherence_trajectory`, read
    one sample at a time: each diagonal d that the cat fills propagated
    alone, its entries (n, n + d) as two real columns under the block of
    the whole-matrix Liouvillian with the coupling off that holds their
    transposes (the same floats), with one batched expm per diagonal over
    the distinct steps; after each step, the probe coherent state of that
    sample and its sum with every diagonal."""
    size = truncation + 1
    amp = oracle.cat_state_vector(spec, truncation)
    coo = liouvillian(None, damping, truncation).tocoo()
    label = block_labels(truncation, None)
    levels, step_index = oracle._step_groups(np.diff(np.r_[0.0, times]))
    signs = (-1.0) ** np.arange(size)
    diagonals = []  # (d, expm per distinct step, the two columns)
    for d in range(size):
        start = amp[:size - d] * amp[d:].conj()
        if start.any():
            gen = block_generator(coo, np.ones(label.size),
                                  np.flatnonzero(label == 4 * d))
            diagonals.append((d, expm(levels[:, None, None] * gen),
                              start.view(float).reshape(-1, 2)))
    out = np.empty(len(times))
    for i, j in enumerate(step_index):
        w = oracle.coherent_state_vector(spec.intensity * math.exp(
            -2.0 * damping.kappa * times[i]), truncation).real
        total = np.zeros(2)
        for k, (d, props, v) in enumerate(diagonals):
            if j >= 0:
                v = props[j] @ v
                diagonals[k] = d, props, v
            part = (w[:size - d] * signs[:size - d] * w[d:]) @ v
            total += (part[0], 0.0) if d == 0 else (
                (0.0, -2.0 * part[1]) if d % 2 else (2.0 * part[0], 0.0))
        out[i] = math.hypot(*total)
    return out
