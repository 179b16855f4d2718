"""Brute-force master-equation oracle in a truncated atom x field basis.

The density matrix lives on basis states |n, s> with s in {+, -}, index
2 n + (0 for +, 1 for -).  Propagation happens in the interaction picture
that removes omega (a* a + sigma_z / 2): at resonance the remaining
Hamiltonian is the bare coupling g (a sigma_+ + a* sigma_-), and the
(unspecified) optical frequency cancels from every observable.  The
Liouvillian is assembled once as a sparse matrix acting on the row-major
vectorization of rho.

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
(coupling off) the filled (k, +, +) blocks.

The dressed-frame helpers rotate trajectories into W(t) = e^{iHt} rho e^{-iHt}
(up to the common free phase), where only damping drives the dynamics; the
appendix equations of motion can then be checked as residuals against the
ladder-coefficient transcription from `dressed`.
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
from scipy.special import gammaln

from .dressed import (
    GROUND,
    JCParams,
    _require_resonance,
    apply_annihilation_dressed,
    build_dressed_frame,
)
from .errors import ConsistencyError, DegenerateCatError, TruncationError
from .states import MASS_TOLERANCE, CatSpec, PhotonDistribution

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
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def truncation(self):
        """Largest photon number N of the basis, from the 2 (N + 1) rows."""
        return self.matrix.shape[0] // 2 - 1


@dataclass(frozen=True)
class WFrameMatrix:
    """W(t) in the dressed basis (ordering of `dressed_basis`)."""

    matrix: np.ndarray
    time: float

    @property
    def truncation(self):
        return self.matrix.shape[0] // 2 - 1


# ---------------------------------------------------------------------------
# state construction
# ---------------------------------------------------------------------------

def coherent_state_vector(intensity, truncation):
    """Fock amplitudes of |z> with z = sqrt(intensity) (real)."""
    n = np.arange(truncation + 1)
    if intensity == 0.0:
        amp = np.zeros(truncation + 1)
        amp[0] = 1.0
        return amp.astype(complex)
    log_amp = 0.5 * (n * math.log(intensity) - intensity - gammaln(n + 1.0))
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
    amplitude vector (any pure field state), or a PhotonDistribution
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
        if amp.size != truncation + 1:
            raise ValueError("amplitude vector length mismatch")
        rho_c = np.outer(amp, amp.conj())
    excited = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    return DensityMatrix(matrix=np.kron(rho_c, excited), time=0.0)


# ---------------------------------------------------------------------------
# Liouvillian and integration
# ---------------------------------------------------------------------------

def _field_annihilation(truncation):
    return np.diag(np.sqrt(np.arange(1, truncation + 1)), 1)


def _left(op):
    """Superoperator for op @ rho under row-major vectorization."""
    dim = op.shape[0]
    return sp.kron(sp.csr_matrix(op), sp.identity(dim, format="csr"), format="csr")


def _right(op):
    """Superoperator for rho @ op under row-major vectorization."""
    dim = op.shape[0]
    return sp.kron(sp.identity(dim, format="csr"), sp.csr_matrix(op.T), format="csr")


def liouvillian(jc, damping, truncation, include_coupling=True):
    """Sparse interaction-picture Liouvillian on vec(rho).

    drho/dt = i [rho, H'] - kappa (n_b+1) (a*a rho + rho a*a - 2 a rho a*)
                          - kappa n_b   (a a* rho + rho a a* - 2 a* rho a)

    with H' = (detuning/2) sigma_z + g (a sigma_+ + a* sigma_-).  Setting
    include_coupling=False drops H' entirely (field-only decay; used for
    pure-decoherence runs).  damping=None runs the undamped limit, which
    DampingParams itself excludes.
    """
    a_f = _field_annihilation(truncation)
    eye_f = np.eye(truncation + 1)
    sigma_p = np.array([[0.0, 1.0], [0.0, 0.0]])
    sigma_m = sigma_p.T
    sigma_z = np.diag([1.0, -1.0])

    a = np.kron(a_f, np.eye(2))
    ad = a.conj().T

    lind = sp.csr_matrix((4 * (truncation + 1) ** 2,) * 2, dtype=complex)
    if include_coupling:
        h = jc.g * (np.kron(a_f, sigma_p) + np.kron(a_f.conj().T, sigma_m))
        h = h + 0.5 * jc.detuning * np.kron(eye_f, sigma_z)
        lind = lind + 1j * (_right(h) - _left(h))

    if damping is None:
        return lind.tocsr()
    k, nb = damping.kappa, damping.n_thermal
    ada = ad @ a
    aad = a @ ad
    lind = lind - k * (nb + 1.0) * (_left(ada) + _right(ada) - 2.0 * _left(a) @ _right(ad))
    if nb > 0:
        lind = lind - k * nb * (_left(aad) + _right(aad) - 2.0 * _left(ad) @ _right(a))
    return lind.tocsr()


def _block_labels(truncation, include_coupling=True):
    """Block label of each entry of row-major vec(rho).

    The label is the coherence order k = m_i - m_j of |n_i, s_i><n_j, s_j|,
    with excitation number m = n + [s = +]; the coupling, the detuning and
    both dissipators conserve it.  Without the coupling the atom states are
    conserved too, and the label is 4 k + 2 s_i + s_j (s = 0 for +, 1 for
    -).  Either way label < 0 exactly where k < 0, and the Liouvillian is
    block-diagonal once vec(rho) is sorted by label.
    """
    s = np.arange(2 * (truncation + 1)) % 2
    m = np.arange(2 * (truncation + 1)) // 2 + 1 - s
    k = m[:, None] - m[None, :]
    if include_coupling:
        return k.ravel()
    return (4 * k + 2 * s[:, None] + s[None, :]).ravel()


def dephased(rho):
    """rho with every entry of coherence order k != 0 set to zero.

    Populations, P_+, P(s1, s2) and the dressed doublets read only k = 0,
    and the k = 0 block evolves on its own, so a run that reads nothing
    else gets the same numbers from the dephased state while propagating
    one block instead of all of them.
    """
    keep = (_block_labels(rho.truncation) == 0).reshape(rho.matrix.shape)
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


def integrate_trajectory(rho0, jc, damping, times, include_coupling=True):
    """Propagate the master equation exactly, returning a DensityMatrix at
    each time.

    vec(rho) is split into blocks (see `_block_labels`).  Only the blocks
    with k >= 0 whose initial vector is non-zero are propagated; block -k is
    filled as the conjugate transpose, which needs rho0 to be Hermitian.
    Each block gets one `scipy.linalg.expm` per distinct step length and one
    mat-vec per sample.  Trace drift beyond 10*DEFAULT_TOL raises.
    """
    times = np.asarray(times, dtype=float)
    if times[0] < rho0.time or np.any(np.diff(times) < 0):
        raise ValueError("times must be non-decreasing and not before rho0")
    m0 = rho0.matrix
    if np.abs(m0 - m0.conj().T).max() > HERMITIAN_TOL:
        raise ConsistencyError("initial density matrix is not Hermitian")
    trunc = rho0.truncation
    dim = 2 * (trunc + 1)
    label = _block_labels(trunc, include_coupling)
    lind = liouvillian(jc, damping, trunc, include_coupling=include_coupling)
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
        if abs(drift) > 10.0 * DEFAULT_TOL:
            raise ConsistencyError(
                f"trace drift {drift:.3e} beyond 10*DEFAULT_TOL")
        traj.append(DensityMatrix(matrix=m, time=float(t)))
    return traj


# ---------------------------------------------------------------------------
# dressed frame
# ---------------------------------------------------------------------------

def ground_index():
    return 0


def plus_index(n):
    return 1 + 2 * n


def minus_index(n):
    return 2 + 2 * n


def edge_index(truncation):
    """Index of the unpaired top state |N, +> left over by the truncation."""
    return 2 * truncation + 1


def dressed_basis(truncation):
    """(U, rabi) with dressed states as columns of U (resonant, theta = pi/4).

    Column order: |psi_0>=|0,->, then (psi_n^+, psi_n^-) for n = 0..N-1, then
    the truncation edge state |N, +>.  `rabi` holds the interaction-picture
    eigenvalue of each column in units of g: 0, +-sqrt(n+1), 0.
    """
    dim = 2 * (truncation + 1)
    u = np.zeros((dim, dim))
    rabi = np.zeros(dim)
    u[2 * 0 + 1, ground_index()] = 1.0  # |0, ->
    r = 1.0 / math.sqrt(2.0)
    for n in range(truncation):
        bare_minus = 2 * (n + 1) + 1  # |n+1, ->
        bare_plus = 2 * n             # |n, +>
        u[bare_minus, plus_index(n)] = r
        u[bare_plus, plus_index(n)] = r
        u[bare_minus, minus_index(n)] = -r
        u[bare_plus, minus_index(n)] = r
        rabi[plus_index(n)] = math.sqrt(n + 1.0)
        rabi[minus_index(n)] = -math.sqrt(n + 1.0)
    u[2 * truncation, edge_index(truncation)] = 1.0  # |N, +>
    return u, rabi


def to_w_frame(rho, frame):
    """Rotate rho(t) into the dressed-basis W frame at t = rho.time.

    At resonance W(t) = e^{iHt} rho(t) e^{-iHt} reduces, in the interaction
    picture, to conjugation by the diagonal phases e^{i g sqrt(n+1) t} of the
    coupling Hamiltonian.
    """
    _require_resonance(frame.params)
    u, rabi = dressed_basis(rho.truncation)
    lam = frame.params.g * rabi
    dressed = u.T @ rho.matrix @ u
    phases = np.exp(1j * lam * rho.time)
    w = phases[:, None] * dressed * phases.conj()[None, :]
    return WFrameMatrix(matrix=w, time=rho.time)


def dressed_annihilation(frame, truncation):
    """Matrix of a in the dressed basis, built from the ladder coefficients.

    Bulk columns come from the resonant relations of `dressed`; the two
    truncation-edge cases (the unpaired |N, +> and the absent level N
    doublet) are filled from the bare action.
    """
    dim = 2 * (truncation + 1)
    a_d = np.zeros((dim, dim))

    def row_of(term):
        if term.branch == GROUND:
            return ground_index()
        return plus_index(term.level) if term.branch == "+" else minus_index(term.level)

    for n in range(truncation):
        for branch, col in (("+", plus_index(n)), ("-", minus_index(n))):
            for term in apply_annihilation_dressed(frame, branch, n):
                a_d[row_of(term), col] = term.coefficient
    # a |N, +> = sqrt(N) |N-1, +> = sqrt(N/2) (|psi_{N-1}^+> + |psi_{N-1}^->)
    root = math.sqrt(truncation / 2.0)
    a_d[plus_index(truncation - 1), edge_index(truncation)] = root
    a_d[minus_index(truncation - 1), edge_index(truncation)] = root
    return a_d


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


def oracle_observables(trajectory, frame):
    """P_+, dressed F_n, F_{-1} and off-diagonals per sample, read from the
    bare density matrix.  With a = |n, +>, b = |n+1, -> and
    psi_n^{+/-} = (a +/- b) / sqrt(2): F_n = rho_aa + rho_bb,
    F_{-1} = 2 rho(|0, ->), P_+ = sum_n rho(|n, +>) and <psi_n^+|W|psi_n^->
    = (1/2) e^{2 i g sqrt(n+1) t} (rho_aa - rho_bb + rho_ba - rho_ab).
    """
    _require_resonance(frame.params)
    trunc = trajectory[0].truncation
    times = np.array([r.time for r in trajectory])
    rho = np.stack([r.matrix for r in trajectory])
    diag = np.diagonal(rho, axis1=1, axis2=2).real
    a = 2 * np.arange(trunc)  # |n, +>
    b = a + 3                 # |n+1, ->
    rho_aa, rho_bb = diag[:, a], diag[:, b]
    phases = np.exp(2j * frame.params.g * np.sqrt(np.arange(1.0, trunc + 1.0))
                    * times[:, None])
    offd = 0.5 * phases * (rho_aa - rho_bb + rho[:, b, a] - rho[:, a, b])
    return OracleObservables(times=times, p_plus=diag[:, 0::2].sum(axis=1),
                             f=rho_aa + rho_bb, f_ground=2.0 * diag[:, 1],
                             offdiag=offd)


def condition_on_atom(rho, outcome):
    """Unnormalized field matrix <s|rho|s> and its weight after detection."""
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

def w_equation_residuals(trajectory, frame, damping, dt):
    """Residuals of the dressed-frame equations of motion along a W trajectory.

    `trajectory` is a list of WFrameMatrix sampled at uniform spacing dt with
    dt * g < 0.1.  Time derivatives use a fourth-order centered stencil, so
    residuals exist at interior samples 2..len-3.  The right-hand side is the
    dissipator conjugated into the rotating dressed frame, assembled from the
    ladder-coefficient matrix of `dressed_annihilation` and the explicit
    oscillatory phase factors; element families are reported separately:

      diag_bulk    diagonal doublet elements, n >= 1
      diag_ground  diagonal elements at n = 0 and the ground sector
      offdiag_bulk intra-doublet off-diagonals, n >= 1
      offdiag_n0   intra-doublet off-diagonal at n = 0

    Returns a dict with the max absolute residual per family and `w_norm`,
    the max absolute W element seen.
    """
    if len(trajectory) < 5:
        raise ValueError("need at least 5 uniformly spaced samples")
    trunc = trajectory[0].truncation
    g = frame.params.g
    if dt * g >= 0.1:
        raise ValueError("dt*g must be below 0.1 for the secular part")
    _, rabi = dressed_basis(trunc)
    lam = g * rabi
    a_base = dressed_annihilation(frame, trunc)
    k, nb = damping.kappa, damping.n_thermal

    plus_rows = np.array([plus_index(n) for n in range(trunc)])
    minus_rows = np.array([minus_index(n) for n in range(trunc)])
    report = {key: 0.0 for key in
              ("diag_bulk", "diag_ground", "offdiag_bulk", "offdiag_n0")}
    w_norm = 0.0
    for i in range(2, len(trajectory) - 2):
        t = trajectory[i].time
        w = trajectory[i].matrix
        w_norm = max(w_norm, np.abs(w).max())
        phases = np.exp(1j * lam * t)
        a_t = phases[:, None] * a_base * phases.conj()[None, :]
        a_t_dag = a_t.conj().T
        num_low = a_t_dag @ a_t
        rhs = -k * (nb + 1.0) * (num_low @ w + w @ num_low
                                 - 2.0 * a_t @ w @ a_t_dag)
        if nb > 0:
            num_high = a_t @ a_t_dag
            rhs = rhs - k * nb * (num_high @ w + w @ num_high
                                  - 2.0 * a_t_dag @ w @ a_t)
        wdot = (
            -trajectory[i + 2].matrix + 8.0 * trajectory[i + 1].matrix
            - 8.0 * trajectory[i - 1].matrix + trajectory[i - 2].matrix
        ) / (12.0 * dt)
        res = np.abs(wdot - rhs)
        report["diag_bulk"] = max(
            report["diag_bulk"],
            res[plus_rows[1:], plus_rows[1:]].max(),
            res[minus_rows[1:], minus_rows[1:]].max(),
        )
        report["diag_ground"] = max(
            report["diag_ground"],
            res[plus_rows[0], plus_rows[0]],
            res[minus_rows[0], minus_rows[0]],
            res[ground_index(), ground_index()],
        )
        report["offdiag_bulk"] = max(
            report["offdiag_bulk"], res[plus_rows[1:], minus_rows[1:]].max()
        )
        report["offdiag_n0"] = max(
            report["offdiag_n0"], res[plus_rows[0], minus_rows[0]]
        )
    report["w_norm"] = w_norm
    return report


def w_trajectory(rho0, jc, damping, center_times, dt):
    """Sample 5-point W-frame stencils around each center time.

    Returns a list of 5-sample W windows (one per center time), ready for
    `w_equation_residuals`.
    """
    frame = build_dressed_frame(jc, rho0.truncation)
    windows = []
    for tc in center_times:
        times = tc + dt * np.arange(-2.0, 3.0)
        if times[0] < 0:
            raise ValueError("stencil extends below t = 0")
        traj = integrate_trajectory(rho0, jc, damping, times)
        windows.append([to_w_frame(r, frame) for r in traj])
    return windows


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
    traj = integrate_trajectory(rho0, JCParams(g=1.0), damping, times,
                                include_coupling=False)
    out = np.empty(len(traj))
    for i, rho in enumerate(traj):
        field = rho.matrix[0::2, 0::2] + rho.matrix[1::2, 1::2]
        out[i] = branch_coherence(field, spec.intensity, truncation, rho.time,
                                  damping.kappa)
    return out
