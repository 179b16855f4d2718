"""Brute-force master-equation oracle in a truncated atom x field basis.

The density matrix lives on basis states |n, s> with s in {+, -}, index
2 n + (0 for +, 1 for -), in the interaction picture that removes
omega (a* a + sigma_z / 2): at resonance the remaining Hamiltonian is the
bare coupling g (a sigma_+ + a* sigma_-), and the (unspecified) optical
frequency cancels from every observable.

The coupling, the detuning and both dissipators conserve the coherence order
k = m_i - m_j of |n_i, s_i><n_j, s_j|, with excitation number m = n + [s = +]
(Buca & Prosen, NJP 14, 073007, 2012), so the Liouvillian is block-diagonal
with blocks of at most 4 N + 2 states.  Each block is propagated exactly
with `scipy.linalg.expm` (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31,
970, 2009).

The blocks are propagated in the atom-phase frame rho' = S* rho S with
S = 1_field x diag(1, i).  The coupling links |n, +> only with |n+1, ->, so
S turns g (a sigma_+ + a* sigma_-) into i times a real antisymmetric matrix
and i [rho, H'] into a real map; a and a* act on the field alone and commute
with S, so both dissipators stay real.  At resonance every block is
therefore a real matrix.  Multiplying by 1 or +/-i only moves and negates
floats, so the rotated entries are exactly those of `liouvillian`.  A
detuning adds i (H'_jj - H'_ii) on the diagonal, which no diagonal S
removes, and such a block stays complex.
"""

import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
# unused here: benchmarks/run.py --trace 1 wraps this name to count nfev;
# delete it when the benchmark replaces that counter (ROADMAP item 2)
from scipy.integrate import solve_ivp  # noqa: F401
from scipy.linalg import expm

from .dressed import dressed_annihilation, dressed_basis
from .errors import (ConsistencyError, TruncationError, _check_outcome, _count,
                     _nonnegative, _require_resonance, _times)
from .states import MASS_TOLERANCE, CatSpec, PhotonDistribution, _log_poisson

#: Trace drift beyond 10 * DEFAULT_TOL raises ConsistencyError.
DEFAULT_TOL = 1e-8

#: Largest |rho - rho^dagger| entry a DensityMatrix accepts.
HERMITIAN_TOL = 1e-10

#: Step lengths equal to this relative tolerance share one propagator.
STEP_RTOL = 1e-12

#: Largest relative deviation of a residual window's steps from their mean.
SPACING_RTOL = 1e-9

_LOG = logging.getLogger("catcavity")


@dataclass(frozen=True)
class DensityMatrix:
    """Atom x field density operator, basis |n, s>, at a given time.  A
    matrix that is not Hermitian to HERMITIAN_TOL raises ConsistencyError."""

    matrix: np.ndarray
    time: float

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        dim = m.shape[0] if m.ndim == 2 else 0
        if m.shape != (dim, dim) or dim < 2 or dim % 2:
            raise ValueError("matrix must be square with an even dimension")
        _times(self.time, one=True)
        if not np.isfinite(m).all():
            raise ValueError("matrix entries must be finite")
        if np.abs(m - m.conj().T).max() > HERMITIAN_TOL:
            raise ConsistencyError("density matrix is not Hermitian")
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
    _nonnegative(intensity, "intensity")
    n = np.arange(_count(truncation, "truncation", 1) + 1)
    return np.exp(0.5 * _log_poisson(intensity, n)).astype(complex)


def cat_state_vector(spec, truncation):
    """Fock amplitudes of the normalized cat |z; phi>, coherences included."""
    spec.refuse_degenerate()
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
    _count(truncation, "truncation", 1)
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
        # a NaN or infinite amplitude makes the norm NaN or infinite
        if not abs(np.vdot(amp, amp).real - 1.0) <= MASS_TOLERANCE:
            raise ValueError("amplitudes must be finite, of unit norm")
        rho_c = np.outer(amp, amp.conj())
    return reinject_excited(rho_c, 0.0)


# ---------------------------------------------------------------------------
# Liouvillian and integration
# ---------------------------------------------------------------------------

def _liouvillian_triplets(jc, damping, truncation):
    """The Liouvillian of `liouvillian` as (rows, cols, values) arrays.

    No (row, col) pair appears twice, so no entry is a sum; a value may be
    zero, where the diagonal has nothing to add.
    """
    dim = 2 * (truncation + 1)
    every = np.arange(dim)
    vec = every[:, None] * dim + every[None, :]  # position of (i, j)
    diag = np.zeros((dim, dim), dtype=complex)
    rows, cols, vals = [vec.ravel()], [vec.ravel()], []
    lo = np.arange(2 * truncation)  # |n, s> with n < N; a takes lo + 2 to lo
    root = np.sqrt(lo // 2 + 1.0)
    if jc is not None:
        energy = 0.5 * jc.detuning * np.where(every % 2, -1.0, 1.0)
        diag += 1j * (energy[None, :] - energy[:, None])
        # g sqrt(n + 1) between |n, +> and |n + 1, ->, both ways
        plus = lo[0::2]
        h_row = np.r_[plus, plus + 3]
        h_col = np.r_[plus + 3, plus]
        h_val = 1j * jc.g * np.tile(root[0::2], 2)
        rows += [vec[:, h_col].ravel(), vec[h_row, :].ravel()]
        cols += [vec[:, h_row].ravel(), vec[h_col, :].ravel()]
        vals += [np.tile(h_val, dim), -np.repeat(h_val, dim)]
    if damping is not None:
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
    """Sparse interaction-picture Liouvillian on vec(rho).

    drho/dt = i [rho, H'] + sum_(rate, J) rate (2 J rho J* - J*J rho - rho J*J)

    with H' = (detuning/2) sigma_z + g (a sigma_+ + a* sigma_-) and the jumps
    (rate, J) = (kappa (n_b + 1), a) and (kappa n_b, a*).  Under row-major
    vectorization entry (i, j) of A rho B reads A_ik B_lj from entry (k, l),
    so each term is written as (row, col, value) triplets: the diagonal
    i (H'_jj - H'_ii) - sum rate ((J*J)_ii + (J*J)_jj), the coupling once
    from each side of the commutator, and each jump's sandwich shifted one
    photon along both indices.  jc=None drops H' (field-only decay, for
    pure-decoherence runs) and damping=None drops the dissipator (the
    undamped limit, which DampingParams itself excludes).  The propagation
    reads the same triplets without building this matrix.
    """
    _count(truncation, "truncation", 0)
    rows, cols, vals = _liouvillian_triplets(jc, damping, truncation)
    dim = 2 * (truncation + 1)
    lind = sp.csr_matrix((vals, (rows, cols)), shape=(dim * dim,) * 2)
    lind.eliminate_zeros()
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
    keep = (_block_labels(rho.truncation, None) // 4 == 0).reshape(
        rho.matrix.shape)
    return DensityMatrix(matrix=np.where(keep, rho.matrix, 0.0), time=rho.time)


def _atom_phases(truncation):
    """d with vec(S* rho S) = d * vec(rho) for S = 1_field x diag(1, i):
    d_(i,j) = conj(s_i) s_j, each exactly 1, i or -i."""
    s = np.tile([1.0, 1j], truncation + 1)
    return np.outer(s.conj(), s).ravel()


def _filled_blocks(triplets, label, phase, v0):
    """Each block with label >= 0 whose part of v0 is non-zero, as
    (indices, generator).

    `indices` are the block's vec(rho) positions in ascending order, and
    `generator` is the dense block of the Liouvillian on them in the
    atom-phase frame vec(S* rho S) = phase * vec(rho) (see `_atom_phases`),
    scattered directly from its (rows, cols, values) `triplets`.  The
    rotation multiplies by 1 or +/-i, which is exact; a generator whose
    rotated entries are all real is scattered into a float array.
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
    row, col, val = triplets
    which = owner[row]
    keep = np.flatnonzero((which >= 0) & (val != 0))
    keep = keep[np.argsort(which[keep], kind="stable")]
    edges = np.searchsorted(which[keep], np.arange(len(blocks) + 1))
    row, col = row[keep], col[keep]
    rows, cols = local[row], local[col]
    data = val[keep] * phase[row] * phase[col].conj()
    for i, b in enumerate(blocks):
        nz = slice(edges[i], edges[i + 1])
        gen = data[nz]
        if not gen.imag.any():
            gen = gen.real
        dense = np.zeros((b.size, b.size), dtype=gen.dtype)
        dense[rows[nz], cols[nz]] = gen
        yield b, dense


def _step_groups(steps):
    """Distinct non-zero step lengths (equal to STEP_RTOL relative) and each
    step's index into them; zero steps get index -1."""
    order = np.argsort(steps, kind="stable")
    ranked = steps[order]
    new = np.r_[ranked[0] > 0, np.diff(ranked) > STEP_RTOL * ranked[1:]]
    index = np.empty(steps.size, dtype=int)
    index[order] = np.cumsum(new) - 1
    return ranked[new], index


def _check_times(times, start):
    times = np.array(_times(times))
    if (times.ndim != 1 or not times.size or times[0] < start
            or np.any(np.diff(times) < 0)):
        raise ValueError("times must be a non-empty 1-D array, "
                         "non-decreasing and not before rho0")
    return times


class Trajectory(Sequence):
    """The samples of one oracle run, as a read-only sequence; what
    `integrate_trajectory` returns.

    It holds the propagated block vectors, not density matrices: for each
    sample, the entries of vec(rho) at every position of every propagated
    block (all of coherence order k >= 0), in the bare basis.  `entries`
    reads any rho_ij of every sample from them.  `traj[i]` and iteration
    build a sample's dense DensityMatrix on request, with the k < 0 blocks
    filled as conjugate transposes; nothing keeps it.
    """

    def __init__(self, times, truncation, label, index, values):
        self.times = times
        self.truncation = truncation
        self._label = label
        self._index = index
        self._values = values  # (samples, index.size + 1), last column 0
        self._slot = np.full(label.size, index.size)
        self._slot[index] = np.arange(index.size)
        for array in (times, values):
            array.flags.writeable = False

    def __len__(self):
        return self.times.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]
        dim = 2 * (self.truncation + 1)
        m = np.zeros(dim * dim, dtype=complex)
        m[self._index] = self._values[i, :-1]
        m = m.reshape(dim, dim)
        lower = (self._label < 0).reshape(dim, dim)
        m[lower] = m.T.conj()[lower]
        return DensityMatrix(matrix=m, time=float(self.times[i]))

    def entries(self, rows, cols):
        """rho_(rows, cols) of every sample, with shape (len(self),) + the
        broadcast shape of the two index arrays.  An entry of a block that
        was never propagated is zero, and one of coherence order k < 0 is
        the conjugate of its transpose."""
        dim = 2 * (self.truncation + 1)
        rows, cols = np.broadcast_arrays(rows, cols)
        if not (np.all((0 <= rows) & (rows < dim))
                and np.all((0 <= cols) & (cols < dim))):
            raise IndexError(f"entries lie outside the {dim} x {dim} matrix")
        pos = rows * dim + cols
        lower = self._label[pos] < 0
        # np.take keeps the result C-ordered, so that a sum over the entries
        # of each sample runs in the same order as over a dense matrix
        out = np.take(self._values,
                      self._slot[np.where(lower, cols * dim + rows, pos)],
                      axis=1)
        if lower.any():
            out[:, lower] = out[:, lower].conj()
        return out


class _BlockPropagator:
    """The filled blocks of one Liouvillian, with each block's propagator
    built once per distinct step length and kept for later runs."""

    def __init__(self, jc, damping, truncation, v0):
        self.truncation = truncation
        self.label = _block_labels(truncation, jc)
        self.phase = _atom_phases(truncation)
        self.blocks = list(_filled_blocks(
            _liouvillian_triplets(jc, damping, truncation), self.label,
            self.phase, v0))
        self._props = {}  # (block number, step length) -> expm

    def run(self, v0, start, times):
        """Trajectory of vec(rho) = v0 at `start` over the sorted `times`.

        Only the filled blocks, all of k >= 0, are propagated: v0 on
        k < 0 is read as the conjugate transpose of its k > 0 part, and
        v0 must vanish in every other block.  Each block runs in the
        atom-phase frame (see `_filled_blocks`) with one product per
        sample; a real block carries the real and imaginary parts of its
        vector as two columns.  The INFO log names each block's size and
        arithmetic and the number of expm builds this run added.  Trace
        drift beyond 10*DEFAULT_TOL, read from the populations, raises.
        """
        levels, step_index = _step_groups(np.diff(np.r_[start, times]))
        used = levels[np.unique(step_index[step_index >= 0])]
        phase = self.phase
        index = np.concatenate([idx for idx, _ in self.blocks]
                               + [np.zeros(0, dtype=int)])
        values = np.zeros((times.size, index.size + 1), dtype=complex)
        first, builds, kinds = 0, 0, []
        for b, (idx, gen) in enumerate(self.blocks):
            for level in used:
                if (b, level) not in self._props:
                    self._props[b, level] = expm(level * gen)
                    builds += 1
            real = gen.dtype.kind == "f"
            v = v0[idx] * phase[idx]
            if real:  # the real and imaginary parts as two columns
                v = v.view(float).reshape(idx.size, 2)
            block = np.empty((times.size,) + v.shape, dtype=v.dtype)
            for i, j in enumerate(step_index):
                if j >= 0:
                    v = self._props[b, levels[j]] @ v
                block[i] = v
            rotated = block.view(complex).reshape(times.size, idx.size)
            np.multiply(rotated, phase[idx].conj(),
                        out=values[:, first:first + idx.size])
            first += idx.size
            kinds.append("real" if real else "complex")
        _LOG.info("oracle: truncation %d, propagated block sizes %s, "
                  "arithmetic [%s], expm builds %d", self.truncation,
                  [idx.size for idx, _ in self.blocks], ", ".join(kinds),
                  builds)
        traj = Trajectory(times, self.truncation, self.label, index, values)
        every = np.arange(2 * (self.truncation + 1))
        drift = (traj.entries(every, every).real.sum(axis=1)
                 - v0[every * every.size + every].real.sum())
        bad = np.flatnonzero(~(np.abs(drift) <= 10.0 * DEFAULT_TOL))
        if bad.size:  # NaN drift fails too
            raise ConsistencyError(
                f"trace drift {drift[bad[0]]:.3e} beyond 10*DEFAULT_TOL")
        return traj


def integrate_trajectory(rho0, jc, damping, times):
    """Propagate the master equation exactly to each time, as a
    `Trajectory`; jc=None or damping=None drops the coupling or the
    dissipator (see `liouvillian`).  Every block whose initial vector is
    non-zero is propagated (see `_BlockPropagator.run`)."""
    times = _check_times(times, rho0.time)
    v0 = rho0.matrix.reshape(-1)
    prop = _BlockPropagator(jc, damping, rho0.truncation, v0)
    return prop.run(v0, rho0.time, times)


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
    bare entries of a `Trajectory`.  With a = |n, +>, b = |n+1, -> and
    psi_n^{+/-} = (a +/- b) / sqrt(2): F_n = rho_aa + rho_bb,
    F_{-1} = 2 rho(|0, ->), P_+ = sum_n rho(|n, +>) and <psi_n^+|W|psi_n^->
    = (1/2) e^{2 i g sqrt(n+1) t} (rho_aa - rho_bb + rho_ba - rho_ab).
    Every one of these entries has coherence order k = 0.
    """
    _require_resonance(jc)
    trunc = trajectory.truncation
    times = np.array(trajectory.times)
    every = np.arange(2 * (trunc + 1))
    diag = trajectory.entries(every, every).real
    a = 2 * np.arange(trunc)  # |n, +>
    b = a + 3                 # |n+1, ->
    rho_aa, rho_bb = diag[:, a], diag[:, b]
    phases = np.exp(2j * jc.g * np.sqrt(np.arange(1.0, trunc + 1.0))
                    * times[:, None])
    offd = 0.5 * phases * (rho_aa - rho_bb + trajectory.entries(b, a)
                           - trajectory.entries(a, b))
    return OracleObservables(times=times, p_plus=diag[:, 0::2].sum(axis=1),
                             f=rho_aa + rho_bb, f_ground=2.0 * diag[:, 1],
                             offdiag=offd)


def condition_on_atom(rho, outcome):
    """Unnormalized field matrix <s|rho|s> and its weight after detection.

    `rho` is a DensityMatrix, or a `Trajectory`, whose samples are all
    conditioned: then the fields come stacked, (samples, N + 1, N + 1),
    with an array of weights.
    """
    _check_outcome(outcome)
    s = 0 if outcome == "+" else 1
    if isinstance(rho, Trajectory):
        sector = 2 * np.arange(rho.truncation + 1) + s
        block = rho.entries(sector[:, None], sector[None, :])
        return block, np.trace(block, axis1=1, axis2=2).real
    block = rho.matrix[s::2, s::2]
    return block, float(np.trace(block).real)


_EXCITED = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)


def reinject_excited(field_matrix, time):
    """Re-tensor a fresh excited atom onto an (unnormalized) field matrix."""
    return DensityMatrix(matrix=np.kron(field_matrix, _EXCITED), time=time)


def joint_probability_oracle(rho0, jc, damping, t_a, t_b, s1, s2):
    """Two-atom joint probability by explicit sequential integration.

    Atom 1 evolves with the field to t_A and is projected onto s1 (keeping
    the unnormalized weight); a fresh excited atom then evolves with the
    conditioned field to t_B, where s2 is read off.  Only the k = 0 part of
    rho0 can reach that trace through conditioning and re-injection, so the
    run starts from `dephased(rho0)` and propagates that block alone.  Both
    passages share its generator and one expm per distinct step length:
    t_B = 2 t_A from rho0 at time 0 takes a single expm.  Neither builds a
    dense density matrix.
    """
    _check_outcome(s1, "s1")
    _check_outcome(s2, "s2")
    t_a, t_b = _check_times([_times(t, one=True) for t in (t_a, t_b)],
                            rho0.time)
    rho0 = dephased(rho0)
    v0 = rho0.matrix.reshape(-1)
    prop = _BlockPropagator(jc, damping, rho0.truncation, v0)
    traj_a = prop.run(v0, rho0.time, np.array([t_a]))
    fields, weights = condition_on_atom(traj_a, s1)
    if weights[-1] <= 0.0:
        return 0.0
    v_b = np.kron(fields[-1], _EXCITED).reshape(-1)
    traj_b = prop.run(v_b, t_a, np.array([t_b]))
    return float(condition_on_atom(traj_b, s2)[1][-1])


# ---------------------------------------------------------------------------
# appendix equation residuals
# ---------------------------------------------------------------------------

def w_equation_residuals(window, jc, damping):
    """Largest residual of the dressed-frame equations of motion on a window
    of samples, and the largest |W| entry it saw.

    `window` is a sequence of DensityMatrix samples, such as a `Trajectory`,
    at strictly increasing times whose steps equal their mean
    dt = (t_last - t_first) / (len - 1) to SPACING_RTOL relative, with
    dt * g < 0.1; each is rotated by `to_w_frame`.  Time derivatives use a
    fourth-order centered stencil, so residuals exist at interior samples
    2..len-3.  The right-hand side is the
    dissipator conjugated into the rotating dressed frame, assembled from
    `dressed.dressed_annihilation` and the explicit oscillatory phase
    factors; it shares no code with `liouvillian`, so the check stays
    independent of the propagation.  The residual is read on the doublet diagonals, the
    intra-doublet off-diagonals <psi_n^+|W|psi_n^-> and the ground sector.
    All of these, and the largest |W| entry (a diagonal one, since W is a
    density matrix), have coherence order k = 0, so a window propagated from
    `dephased(rho0)` gives the same two numbers.

    Returns (largest absolute residual, largest absolute W entry).
    """
    window = list(window)
    if len(window) < 5:
        raise ValueError("need at least 5 uniformly spaced samples")
    times = np.array([rho.time for rho in window])
    dt = (times[-1] - times[0]) / (times.size - 1)
    if not (dt > 0.0 and np.all(
            np.abs(np.diff(times) - dt) <= SPACING_RTOL * dt)):
        raise ValueError("window times must increase at a uniform spacing")
    if dt * jc.g >= 0.1:
        raise ValueError("the window spacing times g must be below 0.1 for "
                         "the secular part")
    trunc = window[0].truncation
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

def branch_coherence_trajectory(spec, damping, times, truncation):
    """Cat branch coherence |<z e^{-kappa t}| rho_C |-z e^{-kappa t}>| of
    the field rho_C under pure cavity decay (coupling off).

    Runs the oracle master equation with the atom uncoupled, so the decay of
    the cross-branch overlap isolates environment-induced decoherence.  The
    probe coherent states follow the decaying branch amplitude so that plain
    energy decay does not masquerade as decoherence.
    """
    rho0 = build_initial_state(spec, truncation)
    traj = integrate_trajectory(rho0, None, damping, times)
    field = condition_on_atom(traj, "+")[0] + condition_on_atom(traj, "-")[0]
    signs = (-1.0) ** np.arange(truncation + 1)
    probes = [coherent_state_vector(spec.intensity * math.exp(
        -2.0 * damping.kappa * t), truncation) for t in traj.times.tolist()]
    return np.array([abs(np.vdot(probe, rho_c @ (probe * signs)))
                     for probe, rho_c in zip(probes, field)])
