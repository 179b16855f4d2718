"""Brute-force master-equation oracle in a truncated atom x field basis.

The density matrix lives on basis states |n, s> with s in {+, -}, index
2 n + (0 for +, 1 for -).  Propagation happens in the interaction picture
that removes omega (a* a + sigma_z / 2): at resonance the remaining
Hamiltonian is the bare coupling g (a sigma_+ + a* sigma_-), and the
(unspecified) optical frequency cancels from every observable.  The
Liouvillian is assembled once as a sparse matrix acting on the row-major
vectorization of rho, with the dissipator written once as a sum over its two
jumps; jc=None switches the coupling off and damping=None the dissipator.

The coupling, the detuning and both dissipators conserve the coherence order
k = m_i - m_j of |n_i, s_i><n_j, s_j|, with excitation number m = n + [s = +]
(Buca & Prosen, NJP 14, 073007, 2012); with the coupling off the atom pair
(s_i, s_j) is conserved as well.  Sorted by these labels, the Liouvillian is
block-diagonal with blocks of at most 4 N + 2 states.  Each block whose
initial vector is non-zero is scattered straight from the Liouvillian's
non-zeros into a dense array and propagated exactly with `scipy.linalg.expm`
(Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 970, 2009).

Populations, P_+, P(s1, s2) and the dressed doublets live in k = 0; the
Fock coherences of a cat fill k != 0.  The k = 0 block is closed under
conditioning on an atom outcome and re-injecting an excited atom, so
`joint_probability_oracle` and the `catcavity oracle` command start from
`dephased(rho0)` and propagate only that block.  `integrate_trajectory`
itself propagates every filled block, and `branch_coherence_trajectory`
(jc=None) the filled (k, +, +) blocks.

The resonant dressed frame, fixed by the JCParams `jc`, is the two arrays of
`dressed`: `dressed_basis` and `dressed_annihilation`.  `to_w_frame` rotates
a density matrix into the array W(t) = e^{iHt} rho e^{-iHt} (up to the common
free phase) in that basis, where only damping drives the dynamics;
`w_equation_residuals` checks the appendix equations of motion on a window of
samples against the matrix of a that `dressed_annihilation` builds from the
ladder relations, with a dissipator of its own that does not share code with
`liouvillian`.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
# unused here: benchmarks/run.py --trace 1 wraps this name to count nfev;
# delete it when the benchmark replaces that counter (ROADMAP item 4)
from scipy.integrate import solve_ivp  # noqa: F401
from scipy.linalg import expm

from .dressed import (_check_outcome, _require_resonance, dressed_annihilation,
                      dressed_basis)
from .errors import ConsistencyError, DegenerateCatError, TruncationError
from .states import MASS_TOLERANCE, CatSpec, PhotonDistribution, _log_poisson

#: Trace drift beyond 10 * DEFAULT_TOL raises ConsistencyError.
DEFAULT_TOL = 1e-8

#: Largest |rho0 - rho0^dagger| entry accepted before filling k < 0 blocks.
HERMITIAN_TOL = 1e-10

#: Step lengths equal to this relative tolerance share one propagator.
STEP_RTOL = 1e-12

_LOG = logging.getLogger("catcavity")


@dataclass(frozen=True)
class DensityMatrix:
    """Atom x field density operator, basis |n, s>, at a given time."""

    matrix: np.ndarray
    time: float

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        dim = m.shape[0] if m.ndim == 2 else 0
        if m.shape != (dim, dim) or dim < 2 or dim % 2:
            raise ValueError("matrix must be square with an even dimension")
        if not (math.isfinite(self.time) and np.all(np.isfinite(m))):
            raise ValueError("time and matrix entries must be finite")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def truncation(self):
        """Largest photon number N of the basis, from the 2 (N + 1) rows."""
        return self.matrix.shape[0] // 2 - 1


# ---------------------------------------------------------------------------
# state construction
# ---------------------------------------------------------------------------

def coherent_state_vector(intensity, truncation):
    """Fock amplitudes of |z> with z = sqrt(intensity) (real)."""
    log_amp = 0.5 * _log_poisson(intensity, np.arange(truncation + 1))
    return np.exp(log_amp).astype(complex)


def cat_state_vector(spec, truncation):
    """Fock amplitudes of the normalized cat |z; phi>, coherences included."""
    if spec.is_degenerate:
        raise DegenerateCatError("cannot build a state vector for a null cat")
    base = coherent_state_vector(spec.intensity, truncation)
    signs = (-1.0) ** np.arange(truncation + 1)
    amp = (base + np.exp(1j * spec.phase) * base * signs) / math.sqrt(
        spec.normalization
    )
    norm = np.vdot(amp, amp).real
    if norm < 1.0 - MASS_TOLERANCE:
        raise TruncationError(
            f"cat state retains norm {norm:.15f} at truncation {truncation}"
        )
    return amp


def build_initial_state(fieldspec, truncation):
    """rho(0) = (field state) x |+><+| with the atom excited.

    `fieldspec` may be a CatSpec (pure cat, Fock coherences kept), a complex
    amplitude vector (any pure field state: N + 1 finite amplitudes whose
    squared norm is one to MASS_TOLERANCE), or a PhotonDistribution
    (diagonal mixture -- what the analytic path sees).
    """
    if isinstance(fieldspec, CatSpec):
        amp = cat_state_vector(fieldspec, truncation)
        rho_c = np.outer(amp, amp.conj())
    elif isinstance(fieldspec, PhotonDistribution):
        if fieldspec.truncation != truncation:
            raise ValueError("distribution truncation mismatch")
        rho_c = np.diag(fieldspec.probs.astype(complex))
    else:
        amp = np.asarray(fieldspec, dtype=complex)
        if amp.shape != (truncation + 1,):
            raise ValueError("amplitude vector length mismatch")
        if not np.all(np.isfinite(amp)):
            raise ValueError("amplitudes must be finite")
        if abs(np.vdot(amp, amp).real - 1.0) > MASS_TOLERANCE:
            raise ValueError("amplitude vector must have unit norm")
        rho_c = np.outer(amp, amp.conj())
    return reinject_excited(rho_c, 0.0)


# ---------------------------------------------------------------------------
# Liouvillian and integration
# ---------------------------------------------------------------------------

def liouvillian(jc, damping, truncation):
    """Sparse interaction-picture Liouvillian on vec(rho).

    drho/dt = i [rho, H'] + sum_(rate, J) rate (2 J rho J* - J*J rho - rho J*J)

    with H' = (detuning/2) sigma_z + g (a sigma_+ + a* sigma_-) and the jumps
    (rate, J) = (kappa (n_b + 1), a) and (kappa n_b, a*).  Under row-major
    vectorization the sandwich A rho B is kron(A, B^T).  jc=None drops H'
    (field-only decay, for pure-decoherence runs) and damping=None drops the
    dissipator (the undamped limit, which DampingParams itself excludes).
    """
    dim = 2 * (truncation + 1)
    a_f = np.diag(np.sqrt(np.arange(1, truncation + 1)), 1)
    eye = np.eye(dim)

    def sandwich(left, right):
        return sp.kron(sp.csr_matrix(left), sp.csr_matrix(right.T),
                       format="csr")

    lind = sp.csr_matrix((dim * dim,) * 2, dtype=complex)
    if jc is not None:
        sigma_p = np.array([[0.0, 1.0], [0.0, 0.0]])
        h = jc.g * (np.kron(a_f, sigma_p) + np.kron(a_f.T, sigma_p.T))
        h = h + 0.5 * jc.detuning * np.kron(np.eye(truncation + 1),
                                            np.diag([1.0, -1.0]))
        lind = lind + 1j * (sandwich(eye, h) - sandwich(h, eye))
    if damping is None:
        return lind
    a = np.kron(a_f, np.eye(2))  # real, so a* = a^T
    k, nb = damping.kappa, damping.n_thermal
    for rate, jump in ((k * (nb + 1.0), a), (k * nb, a.T)):
        if rate > 0:
            number = jump.T @ jump
            lind = lind - rate * (sandwich(number, eye) + sandwich(eye, number)
                                  - 2.0 * sandwich(jump, jump.T))
    return lind


def _block_labels(truncation, jc):
    """Block label of each entry of row-major vec(rho).

    The label is the coherence order k = m_i - m_j of |n_i, s_i><n_j, s_j|,
    with excitation number m = n + [s = +]; the coupling, the detuning and
    both dissipators conserve it.  With the coupling off (jc=None) the atom
    states are conserved too, and the label is 4 k + 2 s_i + s_j (s = 0 for
    +, 1 for -), so label // 4 is k.  Either way label < 0 exactly where
    k < 0, and the Liouvillian is block-diagonal once vec(rho) is sorted by
    label.
    """
    s = np.arange(2 * (truncation + 1)) % 2
    m = np.arange(2 * (truncation + 1)) // 2 + 1 - s
    k = m[:, None] - m[None, :]
    if jc is not None:
        return k.ravel()
    return (4 * k + 2 * s[:, None] + s[None, :]).ravel()


def dephased(rho):
    """rho with every entry of coherence order k != 0 set to zero.

    Populations, P_+, P(s1, s2) and the dressed doublets read only k = 0,
    and the k = 0 block evolves on its own, so a run that reads nothing
    else gets the same numbers from the dephased state while propagating
    one block instead of all of them.
    """
    k = _block_labels(rho.truncation, None) // 4
    keep = (k == 0).reshape(rho.matrix.shape)
    return DensityMatrix(matrix=np.where(keep, rho.matrix, 0.0), time=rho.time)


def _filled_blocks(lind, label, v0):
    """Each block with label >= 0 whose part of v0 is non-zero, as
    (indices, generator).

    `indices` are the block's vec(rho) positions in ascending order, and
    `generator` is the dense block of `lind` on them, scattered directly from
    the non-zeros of `lind` (no sparse slicing of the full Liouvillian).
    """
    order = np.argsort(label, kind="stable")
    upper = order[label[order] >= 0]
    cuts = np.flatnonzero(np.diff(label[upper])) + 1
    blocks = [b for b in np.split(upper, cuts) if v0[b].any()]
    owner = np.full(label.size, -1)
    local = np.zeros(label.size, dtype=int)
    for i, b in enumerate(blocks):
        owner[b] = i
        local[b] = np.arange(b.size)
    coo = lind.tocoo()
    coo.sum_duplicates()
    which = owner[coo.row]
    keep = np.flatnonzero(which >= 0)
    keep = keep[np.argsort(which[keep], kind="stable")]
    edges = np.searchsorted(which[keep], np.arange(len(blocks) + 1))
    rows, cols, data = local[coo.row[keep]], local[coo.col[keep]], coo.data[keep]
    for i, b in enumerate(blocks):
        nz = slice(edges[i], edges[i + 1])
        gen = np.zeros((b.size, b.size), dtype=complex)
        gen[rows[nz], cols[nz]] = data[nz]
        yield b, gen


def _step_groups(steps):
    """Distinct non-zero step lengths (equal to STEP_RTOL relative) and each
    step's index into them; zero steps get index -1."""
    order = np.argsort(steps, kind="stable")
    ranked = steps[order]
    new = np.r_[ranked[0] > 0, np.diff(ranked) > STEP_RTOL * ranked[1:]]
    index = np.empty(steps.size, dtype=int)
    index[order] = np.cumsum(new) - 1
    return ranked[new], index


def integrate_trajectory(rho0, jc, damping, times):
    """Propagate the master equation exactly, returning a DensityMatrix at
    each time; jc=None or damping=None drops the coupling or the dissipator
    (see `liouvillian`).

    vec(rho) is split into blocks (see `_block_labels`).  Only the blocks
    with k >= 0 whose initial vector is non-zero are propagated; block -k is
    filled as the conjugate transpose, which needs rho0 to be Hermitian.
    Each block gets one `scipy.linalg.expm` per distinct step length and one
    mat-vec per sample.  Trace drift beyond 10*DEFAULT_TOL raises.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0 or not np.all(np.isfinite(times)):
        raise ValueError("times must be a non-empty 1-D array of finite values")
    if times[0] < rho0.time or np.any(np.diff(times) < 0):
        raise ValueError("times must be non-decreasing and not before rho0")
    m0 = rho0.matrix
    if np.abs(m0 - m0.conj().T).max() > HERMITIAN_TOL:
        raise ConsistencyError("initial density matrix is not Hermitian")
    trunc = rho0.truncation
    dim = 2 * (trunc + 1)
    label = _block_labels(trunc, jc)
    lind = liouvillian(jc, damping, trunc)
    levels, step_index = _step_groups(np.diff(np.r_[rho0.time, times]))

    v0 = m0.reshape(-1)
    out = np.zeros((times.size, dim * dim), dtype=complex)
    sizes = []
    for idx, gen in _filled_blocks(lind, label, v0):
        props = expm(levels[:, None, None] * gen)
        v = v0[idx]
        block = np.empty((times.size, idx.size), dtype=complex)
        for i, j in enumerate(step_index):
            if j >= 0:
                v = props[j] @ v
            block[i] = v
        out[:, idx] = block
        sizes.append(idx.size)
    _LOG.info("oracle: truncation %d, propagated block sizes %s", trunc, sizes)
    out = out.reshape(times.size, dim, dim)
    lower = (label < 0).reshape(dim, dim)
    out[:, lower] = out.transpose(0, 2, 1).conj()[:, lower]

    trace0 = np.trace(m0).real
    traj = []
    for m, t in zip(out, times):
        drift = np.trace(m).real - trace0
        if not abs(drift) <= 10.0 * DEFAULT_TOL:  # NaN drift fails too
            raise ConsistencyError(
                f"trace drift {drift:.3e} beyond 10*DEFAULT_TOL")
        traj.append(DensityMatrix(matrix=m, time=float(t)))
    return traj


# ---------------------------------------------------------------------------
# dressed frame
# ---------------------------------------------------------------------------

def to_w_frame(rho, jc):
    """W(t) of rho(t) at t = rho.time, as an array in the dressed basis
    (the column order of `dressed.dressed_basis`).

    At resonance W(t) = e^{iHt} rho(t) e^{-iHt} reduces, in the interaction
    picture, to conjugation by the diagonal phases e^{i g sqrt(n+1) t} of the
    coupling Hamiltonian.
    """
    _require_resonance(jc)
    u, rabi = dressed_basis(rho.truncation)
    dressed = u.T @ rho.matrix @ u
    phases = np.exp(1j * (jc.g * rabi) * rho.time)
    return phases[:, None] * dressed * phases.conj()[None, :]


# ---------------------------------------------------------------------------
# observable extraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleObservables:
    """Like-for-like quantities extracted from an oracle trajectory.

    f and offdiag cover the dressed doublets n = 0..truncation-1 present in
    the truncated space.
    """

    times: np.ndarray
    p_plus: np.ndarray
    f: np.ndarray
    f_ground: np.ndarray
    offdiag: np.ndarray


def oracle_observables(trajectory, jc):
    """P_+, dressed F_n, F_{-1} and off-diagonals per sample, read from the
    bare density matrix.  With a = |n, +>, b = |n+1, -> and
    psi_n^{+/-} = (a +/- b) / sqrt(2): F_n = rho_aa + rho_bb,
    F_{-1} = 2 rho(|0, ->), P_+ = sum_n rho(|n, +>) and <psi_n^+|W|psi_n^->
    = (1/2) e^{2 i g sqrt(n+1) t} (rho_aa - rho_bb + rho_ba - rho_ab).
    """
    _require_resonance(jc)
    trunc = trajectory[0].truncation
    times = np.array([r.time for r in trajectory])
    rho = np.stack([r.matrix for r in trajectory])
    diag = np.diagonal(rho, axis1=1, axis2=2).real
    a = 2 * np.arange(trunc)  # |n, +>
    b = a + 3                 # |n+1, ->
    rho_aa, rho_bb = diag[:, a], diag[:, b]
    phases = np.exp(2j * jc.g * np.sqrt(np.arange(1.0, trunc + 1.0))
                    * times[:, None])
    offd = 0.5 * phases * (rho_aa - rho_bb + rho[:, b, a] - rho[:, a, b])
    return OracleObservables(times=times, p_plus=diag[:, 0::2].sum(axis=1),
                             f=rho_aa + rho_bb, f_ground=2.0 * diag[:, 1],
                             offdiag=offd)


def condition_on_atom(rho, outcome):
    """Unnormalized field matrix <s|rho|s> and its weight after detection."""
    _check_outcome(outcome)
    s = 0 if outcome == "+" else 1
    block = rho.matrix[s::2, s::2]
    return block, float(np.trace(block).real)


def reinject_excited(field_matrix, time):
    """Re-tensor a fresh excited atom onto an (unnormalized) field matrix."""
    excited = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    return DensityMatrix(matrix=np.kron(field_matrix, excited), time=time)


def joint_probability_oracle(rho0, jc, damping, t_a, t_b, s1, s2):
    """Two-atom joint probability by explicit sequential integration.

    Atom 1 evolves with the field to t_A and is projected onto s1 (keeping
    the unnormalized weight); a fresh excited atom then evolves with the
    conditioned field to t_B, where s2 is read off.  Only the k = 0 part of
    rho0 can reach that trace through conditioning and re-injection, so the
    run starts from `dephased(rho0)` and propagates that block alone.
    """
    _check_outcome(s1, "s1")
    _check_outcome(s2, "s2")
    rho_a = integrate_trajectory(dephased(rho0), jc, damping, [t_a])[-1]
    field, weight = condition_on_atom(rho_a, s1)
    if weight <= 0.0:
        return 0.0
    rho_b0 = reinject_excited(field, rho_a.time)
    rho_b = integrate_trajectory(rho_b0, jc, damping, [t_b])[-1]
    _, joint = condition_on_atom(rho_b, s2)
    return joint


# ---------------------------------------------------------------------------
# appendix equation residuals
# ---------------------------------------------------------------------------

def w_equation_residuals(window, jc, damping, dt):
    """Largest residual of the dressed-frame equations of motion on a window
    of samples, and the largest |W| entry it saw.

    `window` is a list of DensityMatrix samples at uniform spacing dt with
    dt * g < 0.1, as `integrate_trajectory` returns them; each is rotated by
    `to_w_frame`.  Time derivatives use a fourth-order centered stencil, so
    residuals exist at interior samples 2..len-3.  The right-hand side is the
    dissipator conjugated into the rotating dressed frame, assembled from
    `dressed.dressed_annihilation` and the explicit oscillatory phase
    factors.  The residual is read on the doublet diagonals, the
    intra-doublet off-diagonals <psi_n^+|W|psi_n^-> and the ground sector.
    All of these, and the largest |W| entry (a diagonal one, since W is a
    density matrix), have coherence order k = 0, so a window propagated from
    `dephased(rho0)` gives the same two numbers.

    Returns (largest absolute residual, largest absolute W entry).
    """
    if len(window) < 5:
        raise ValueError("need at least 5 uniformly spaced samples")
    trunc = window[0].truncation
    if dt * jc.g >= 0.1:
        raise ValueError("dt*g must be below 0.1 for the secular part")
    _, rabi = dressed_basis(trunc)
    lam = jc.g * rabi
    a_base = dressed_annihilation(jc, trunc)
    k, nb = damping.kappa, damping.n_thermal
    w = [to_w_frame(rho, jc) for rho in window]

    n = np.arange(trunc)
    plus, minus = 1 + 2 * n, 2 + 2 * n  # columns of psi_n^+ and psi_n^-
    rows = np.r_[plus, minus, 0, plus]
    cols = np.r_[plus, minus, 0, minus]
    worst = w_norm = 0.0
    for i in range(2, len(w) - 2):
        w_norm = max(w_norm, np.abs(w[i]).max())
        phases = np.exp(1j * lam * window[i].time)
        a_t = phases[:, None] * a_base * phases.conj()[None, :]
        a_t_dag = a_t.conj().T
        num_low = a_t_dag @ a_t
        rhs = -k * (nb + 1.0) * (num_low @ w[i] + w[i] @ num_low
                                 - 2.0 * a_t @ w[i] @ a_t_dag)
        if nb > 0:
            num_high = a_t @ a_t_dag
            rhs = rhs - k * nb * (num_high @ w[i] + w[i] @ num_high
                                  - 2.0 * a_t_dag @ w[i] @ a_t)
        wdot = (-w[i + 2] + 8.0 * w[i + 1] - 8.0 * w[i - 1] + w[i - 2]) / (
            12.0 * dt)
        worst = max(worst, np.abs(wdot - rhs)[rows, cols].max())
    return float(worst), float(w_norm)


# ---------------------------------------------------------------------------
# decoherence surrogate
# ---------------------------------------------------------------------------

def branch_coherence(rho_field, intensity, truncation, time, kappa):
    """|<z e^{-kappa t}| rho_C |-z e^{-kappa t}>| for a field density matrix.

    The probe coherent states follow the decaying branch amplitude so that
    plain energy decay does not masquerade as decoherence.
    """
    z2 = intensity * math.exp(-2.0 * kappa * time)
    probe = coherent_state_vector(z2, truncation)
    signs = (-1.0) ** np.arange(truncation + 1)
    return abs(np.vdot(probe, rho_field @ (probe * signs)))


def branch_coherence_trajectory(spec, damping, times, truncation):
    """Cat branch coherence under pure cavity decay (coupling off).

    Runs the oracle master equation with the atom uncoupled, so the decay of
    the cross-branch overlap isolates environment-induced decoherence.
    """
    rho0 = build_initial_state(spec, truncation)
    traj = integrate_trajectory(rho0, None, damping, times)
    out = np.empty(len(traj))
    for i, rho in enumerate(traj):
        field = rho.matrix[0::2, 0::2] + rho.matrix[1::2, 1::2]
        out[i] = branch_coherence(field, spec.intensity, truncation, rho.time,
                                  damping.kappa)
    return out
