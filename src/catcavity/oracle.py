"""Brute-force master-equation oracle in a truncated atom x field basis.

The density matrix lives on basis states |n, s> with s in {+, -}, index
2 n + (0 for +, 1 for -), in the interaction picture that removes
omega (a* a + sigma_z / 2): at resonance the remaining Hamiltonian is the
bare coupling g (a sigma_+ + a* sigma_-), and omega cancels throughout.

The coupling and both dissipators conserve the coherence order
k = m_i - m_j of |n_i, s_i><n_j, s_j|, with excitation number m = n + [s = +]
(Buca & Prosen, NJP 14, 073007, 2012), so the Liouvillian is block-diagonal
with blocks of at most 4 N + 2 states.  Each block is propagated exactly
with `scipy.linalg.expm` (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31,
970, 2009), the k = 0 block on its Hermitian closure of 3 N + 2 real
variables (and N more for an imaginary part, see below), and only when
read: `integrate_trajectory` propagates the blocks of the populations, a
`Trajectory` any other when a read first touches it.  `oracle_observables`,
`joint_probability_oracle`, `w_equation_residuals` and the trace-drift
check read k = 0 entries through `Trajectory.entries`, so they pay for the
k = 0 block alone, whatever the initial state.  The decoherence surrogate
`branch_coherence_trajectory` runs the uncoupled field alone, one real
block per filled diagonal.

The blocks are propagated in the atom-phase frame rho' = S* rho S with
S = 1_field x diag(1, i).  The coupling links |n, +> only with |n+1, ->, so
S turns g (a sigma_+ + a* sigma_-) into i times a real antisymmetric matrix
and i [rho, H'] into a real map; a and a* act on the field alone and commute
with S, so both dissipators stay real, and so does every block.  Multiplying
by 1 or +/-i only moves and negates floats, so a rotated block holds
exactly the floats of `liouvillian` at its positions.

The k = 0 block holds the transpose (j, i) of each of its positions (i, j)
and commutes with that transposition, so rho' stays Hermitian: its real,
symmetric part and its imaginary, antisymmetric part evolve apart (Puri &
Agarwal, PRA 33, 3610, 1986), on the 3 N + 2 positions with i <= j and the
N with i < j, the second only when the start has an imaginary part, which
no cat or photon distribution has.
"""

import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .dressed import dressed_annihilation, dressed_basis
from .errors import (ConsistencyError, TruncationError, _check_outcome, _count,
                     _instance, _nonnegative, _times)
from .params import DampingParams, JCParams
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


def __getattr__(name):
    """`oracle.solve_ivp`, imported on its first read (PEP 562), so that
    importing the oracle does not load `scipy.integrate`.  Only
    `benchmarks/run.py --trace 1` reads it, to count nfev; delete this when
    the benchmark replaces that counter (ROADMAP item 2)."""
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp
        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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

_EXCITED = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)


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
    """rho(0) = (field state) x |+><+| with the atom excited, from a
    CatSpec (pure cat, Fock coherences kept) or a PhotonDistribution
    (diagonal mixture -- what the analytic path sees) `fieldspec`."""
    _instance(fieldspec, "fieldspec", CatSpec, PhotonDistribution)
    _count(truncation, "truncation", 1)
    if isinstance(fieldspec, CatSpec):
        amp = cat_state_vector(fieldspec, truncation)
        rho_c = np.outer(amp, amp.conj())
    else:
        if fieldspec.truncation != truncation:
            raise ValueError("distribution truncation mismatch")
        rho_c = np.diag(fieldspec.probs.astype(complex))
    return DensityMatrix(matrix=np.kron(rho_c, _EXCITED), time=0.0)


# ---------------------------------------------------------------------------
# Liouvillian and integration
# ---------------------------------------------------------------------------

def _triplets(jc, damping, truncation, positions):
    """The Liouvillian of `liouvillian` on the ascending vec(rho)
    `positions`, a set it maps into itself (blocks, or every position), as
    (rows, cols, values) arrays whose rows and cols index `positions`.

    Under row-major vectorization entry (i, j) of A rho B reads A_ik B_lj
    from entry (k, l), so the triplets are the non-zero diagonal
    -sum rate ((J*J)_ii + (J*J)_jj), the coupling once from each side of
    the commutator, and each jump's sandwich shifted one photon along both
    indices.  No (row, col) pair appears twice.
    """
    dim = 2 * (truncation + 1)
    i, j = np.divmod(positions, dim)
    every = np.arange(dim)
    root = np.sqrt(every // 2 + 1.0)  # a takes |n+1, s> to root |n, s>
    diag = np.zeros(positions.size)
    rows, cols, vals = [], [], []
    if jc is not None:
        # g sqrt(n + 1) between |n, +> and |n + 1, ->, both ways; i rho H'
        # reads (i, partner of j), and -i H' rho (partner of i, j)
        plus = every[0:-2:2]
        partner, coupling = np.full(dim, -1), np.zeros(dim, dtype=complex)
        partner[plus], partner[plus + 3] = plus + 3, plus
        coupling[plus] = coupling[plus + 3] = 1j * jc.g * root[plus]
        by_col, by_row = partner[j] >= 0, partner[i] >= 0
        rows += [np.flatnonzero(by_col), np.flatnonzero(by_row)]
        cols += [i[by_col] * dim + partner[j[by_col]],
                 partner[i[by_row]] * dim + j[by_row]]
        vals += [coupling[j[by_col]], -coupling[i[by_row]]]
    k, nb = damping.kappa, damping.n_thermal
    lo = every[:-2]  # |n, s> with n < N; a takes lo + 2 to lo
    for rate, left, right in ((k * (nb + 1.0), lo, lo + 2),
                              (k * nb, lo + 2, lo)):
        if rate > 0:
            # J = sum root |left><right|, so J*J = diag(root^2) on right
            number, amp = np.zeros(dim), np.zeros(dim)
            number[right], amp[left] = root[lo] ** 2, root[lo]
            diag -= rate * (number[i] + number[j])
            source = np.full(dim, -1)
            source[left] = right
            both = np.flatnonzero((source[i] >= 0) & (source[j] >= 0))
            rows.append(both)
            cols.append(source[i[both]] * dim + source[j[both]])
            vals.append(2.0 * rate * (amp[i[both]] * amp[j[both]]))
    nz = np.flatnonzero(diag)
    rows, cols, vals = [nz] + rows, [positions[nz]] + cols, [diag[nz]] + vals
    return (np.concatenate(rows),
            np.searchsorted(positions, np.concatenate(cols)),
            np.concatenate(vals))


def liouvillian(jc, damping, truncation):
    """Sparse interaction-picture Liouvillian on vec(rho).

    drho/dt = i [rho, H'] + sum_(rate, J) rate (2 J rho J* - J*J rho - rho J*J)

    with H' = g (a sigma_+ + a* sigma_-) and the jumps (rate, J) =
    (kappa (n_b + 1), a) and (kappa n_b, a*), from `_triplets` over every
    position; the propagation builds the blocks it propagates from those of
    their positions.  jc=None drops H', the field-only decay that
    `branch_coherence_trajectory` runs from `_triplets` itself.
    """
    import scipy.sparse as sp

    _instance(jc, "jc", JCParams, type(None))
    _instance(damping, "damping", DampingParams)
    _count(truncation, "truncation", 0)
    size = 4 * (truncation + 1) ** 2
    rows, cols, vals = _triplets(jc, damping, truncation, np.arange(size))
    return sp.csr_matrix((vals, (rows, cols)), shape=(size, size))


def _block_labels(truncation):
    """Coherence order k = m_i - m_j of |n_i, s_i><n_j, s_j| at each entry
    of row-major vec(rho), with excitation number m = n + [s = +].  The
    coupling and both dissipators conserve it, so the Liouvillian is
    block-diagonal once vec(rho) is sorted by k.
    """
    s = np.arange(2 * (truncation + 1)) % 2
    m = np.arange(2 * (truncation + 1)) // 2 + 1 - s
    return (m[:, None] - m[None, :]).ravel()


_ATOM = np.array([1.0, 1j])  # s of |n, +> and |n, ->


def _atom_phases(positions, truncation):
    """d at the vec(rho) `positions`, where vec(S* rho S) = d * vec(rho) for
    S = 1_field x diag(1, i): d_(i,j) = conj(s_i) s_j, each exactly 1, i or
    -i."""
    i, j = np.divmod(positions, 2 * (truncation + 1))
    return _ATOM.conj()[i % 2] * _ATOM[j % 2]


def _fold(dense, upper, twin):
    """The generators of a real block closed under (i, j) -> (j, i) on its
    Hermitian closure, both on the rows at the local positions `upper` (each
    (i, j) with i <= j): the symmetric one on the real parts, whose column
    is G[:, a] + G[:, twin(a)] for a pair and G[:, a] on the diagonal, and
    the antisymmetric one on the imaginary parts off the diagonal, whose
    column is G[:, a] - G[:, twin(a)]."""
    pair = upper != twin
    rows = dense[upper]
    sym = rows[:, upper]
    sym[:, pair] += rows[:, twin[pair]]
    rows = rows[pair]
    return sym, rows[:, upper[pair]] - rows[:, twin[pair]]


def _step_groups(steps):
    """Distinct non-zero step lengths (equal to STEP_RTOL relative), each
    the length of some step, and each step's index into them; zero steps get
    index -1."""
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


def _check_drift(drift):
    """Raise ConsistencyError at the first trace drift beyond
    10*DEFAULT_TOL; a NaN drift fails too."""
    bad = np.flatnonzero(~(np.abs(drift) <= 10.0 * DEFAULT_TOL))
    if bad.size:
        raise ConsistencyError(
            f"trace drift {drift[bad[0]]:.3e} beyond 10*DEFAULT_TOL")


class Trajectory(Sequence):
    """The samples of one oracle run, as a read-only sequence; what
    `integrate_trajectory` returns.

    It holds, for each sample, the bare-basis entries of vec(rho) at the
    positions of each filled block (of coherence order k >= 0), propagated
    when a read first touches one of them.  Every library reader reads any
    rho_ij of every sample through `entries` and counts the samples with
    `times.size`.  `traj[i]`, iteration and `len(traj)` (the `Sequence`
    protocol) build dense DensityMatrix samples that nothing keeps, for the
    oracle check of `benchmarks/workloads.py` alone.  A block run on its
    Hermitian closure is stored on all its positions, each entry the exact
    conjugate of its transpose's.  Each block starts from the same initial
    vector with the same propagators, so its values do not depend on the
    order of the reads.  Until every filled block is stored, the trajectory
    keeps its `_BlockPropagator` and each unstored block's part of the
    initial vector; then it lets go of them.
    """

    def __init__(self, times, prop, v0, levels, step_index):
        self.times = times
        self.truncation = prop.truncation
        self._label = prop.label
        self._blocks = prop.blocks
        self._owner, self._local = prop.owner, prop.local
        self._values = [None] * len(prop.blocks)  # (samples, size) each
        # until a block is stored: its part of v0, and what propagates it
        self._start = [v0[idx] for idx in prop.blocks]
        self._prop, self._steps = prop, (levels, step_index)
        times.flags.writeable = False

    def _fill(self, blocks, level=logging.DEBUG):
        """Propagate each of the block numbers `blocks` (-1, no block, is
        skipped) not stored yet, their generators built by one
        `_BlockPropagator.build`, and log their sizes and the size of each
        expm built at `level` (at DEBUG only when there are any)."""
        new = [b for b in np.unique(blocks).tolist()
               if b >= 0 and self._values[b] is None]
        sizes, expms = [], []
        if new:
            self._prop.build(new)
        for b in new:
            values, built = self._prop.propagate(b, self._start[b],
                                                 *self._steps)
            values.flags.writeable = False
            self._values[b], self._start[b] = values, None
            sizes.append(values.shape[1])
            expms += built
        if all(values is not None for values in self._values):
            self._prop = self._steps = None  # lets go of the propagator
        if sizes or level > logging.DEBUG:
            _LOG.log(level, "oracle: truncation %d, propagated block sizes "
                     "%s, expm builds %d of sizes %s", self.truncation, sizes,
                     len(expms), expms)

    def __len__(self):
        return self.times.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]
        self._fill(np.arange(len(self._blocks)))
        dim = 2 * (self.truncation + 1)
        m = np.zeros(dim * dim, dtype=complex)
        for idx, values in zip(self._blocks, self._values):
            m[idx] = values[i]
        m = m.reshape(dim, dim)
        lower = (self._label < 0).reshape(dim, dim)
        m[lower] = m.T.conj()[lower]
        return DensityMatrix(matrix=m, time=float(self.times[i]))

    def entries(self, rows, cols):
        """rho_(rows, cols) of every sample, with shape (times.size,) + the
        broadcast shape of the two index arrays.  An entry of a block that
        is not filled is zero, and one of coherence order k < 0 is the
        conjugate of its transpose."""
        dim = 2 * (self.truncation + 1)
        rows, cols = np.broadcast_arrays(rows, cols)
        if not (np.all((0 <= rows) & (rows < dim))
                and np.all((0 <= cols) & (cols < dim))):
            raise IndexError(f"entries lie outside the {dim} x {dim} matrix")
        pos = (rows * dim + cols).ravel()
        lower = self._label[pos] < 0
        pos[lower] = (cols * dim + rows).ravel()[lower]
        owner = self._owner[pos]
        self._fill(owner)
        # a C-ordered result, so that a sum over the entries of each sample
        # runs in the same order as over a dense matrix
        out = np.zeros((self.times.size, pos.size), dtype=complex)
        for b in np.unique(owner[owner >= 0]):
            here = owner == b
            out[:, here] = self._values[b][:, self._local[pos[here]]]
        if lower.any():
            out[:, lower] = out[:, lower].conj()
        return out.reshape((self.times.size,) + rows.shape)


def _by_block(owner, count):
    """The stable order that groups the block numbers `owner`, all below
    `count`, by block, and where each block's group starts in it and its
    size.  On keys of 16 bits or fewer NumPy's stable sort is a radix sort,
    linear in the number of keys."""
    sizes = np.bincount(owner, minlength=count)
    order = np.argsort(owner.astype(np.min_scalar_type(count)), kind="stable")
    return order, np.cumsum(sizes) - sizes, sizes


class _BlockPropagator:
    """The filled blocks of one Liouvillian.  The dense generators of the
    blocks one read propagates are built together, from the union of their
    positions, and each block's propagators once per distinct step length;
    both are kept for later runs.  A block that holds the transpose (j, i)
    of each of its (i, j), the k = 0 block, is kept as the two generators
    of its Hermitian closure (see `_fold`) alone."""

    def __init__(self, jc, damping, truncation, v0):
        self.model = jc, damping, truncation
        self.truncation = truncation
        self.label = _block_labels(truncation)
        # the labels >= 0 with a non-zero part of v0, numbered in order
        upper = self.label >= 0
        filled = np.bincount(self.label[upper], weights=v0[upper] != 0) > 0
        number = np.where(filled, np.cumsum(filled) - 1, -1)
        self.owner = np.full(self.label.size, -1)  # block number, or -1
        self.owner[upper] = number[self.label[upper]]
        kept = np.flatnonzero(self.owner >= 0)
        order, starts, sizes = _by_block(self.owner[kept], number.max() + 1)
        grouped = kept[order]  # each block's positions, ascending
        self.local = np.zeros(self.label.size, dtype=int)
        self.local[grouped] = (np.arange(grouped.size)
                               - np.repeat(starts, sizes))
        self.blocks = [grouped[a:a + n]
                       for a, n in zip(starts.tolist(), sizes.tolist())]
        self._generators = {}  # block number -> (closure, generators)
        self._props = {}  # ((block number, part), step length) -> expm

    def build(self, blocks):
        """Build the generators of each of the distinct block numbers
        `blocks` that has none yet, all from one `_triplets` call over the
        sorted union of their positions, rotated into the atom-phase frame
        (see `_atom_phases`), which is exact and leaves every entry real.
        Each triplet's value depends on its own (row, col) alone, so a
        block's slice of the union holds exactly the triplets of its own
        positions.  Each generator is scattered into a float array; the
        k = 0 block's, closed under transposition, is folded onto its
        Hermitian closure (the local indices of each (i, j) with i <= j,
        ascending, and of its transpose (j, i))."""
        new = [b for b in blocks if b not in self._generators]
        if not new:
            return
        union = np.sort(np.concatenate([self.blocks[b] for b in new]))
        rows, cols, val = _triplets(*self.model, union)
        phase = _atom_phases(union, self.truncation)
        gen = val * phase[rows] * phase[cols].conj()
        rows, cols = union[rows], union[cols]
        order, start, count = _by_block(self.owner[rows], len(self.blocks))
        dim = 2 * (self.truncation + 1)
        for b in new:
            part = order[start[b]:start[b] + count[b]]
            dense = np.zeros((self.blocks[b].size,) * 2)
            dense[self.local[rows[part]], self.local[cols[part]]] = (
                gen[part].real)
            if self.label[self.blocks[b][0]]:  # k != 0
                self._generators[b] = None, (dense,)
                continue
            i, j = np.divmod(self.blocks[b], dim)
            upper = np.flatnonzero(i <= j)
            closure = upper, self.local[j[upper] * dim + i[upper]]
            self._generators[b] = closure, _fold(dense, *closure)

    def _advance(self, key, gen, v, levels, step_index):
        """v after each sample's step under the generator `gen`, as a
        (samples,) + v.shape array, with the expm of each distinct step
        length kept under (key, level), and the size of each expm built."""
        sizes = []
        for level in levels:
            if (key, level) not in self._props:
                self._props[key, level] = expm(level * gen)
                sizes.append(gen.shape[0])
        out = np.empty((step_index.size,) + v.shape, dtype=v.dtype)
        for i, j in enumerate(step_index):
            if j >= 0:
                v = self._props[key, levels[j]] @ v
            out[i] = v
        return out, sizes

    def propagate(self, b, v, levels, step_index):
        """Block `b` of vec(rho) at each sample, from its part `v` of the
        initial vector, in the bare basis, as a (samples, size) array, and
        the size of each expm it built, from the generators `build` built.

        Sample i is one step of length levels[step_index[i]] (none for
        index -1) after sample i - 1, one product in the atom-phase frame.
        The k = 0 block runs on its Hermitian closure: v is taken as its
        Hermitian part, whose real part x = (x_a + x_twin) / 2 runs on the
        symmetric generator and imaginary part y = (y_a - y_twin) / 2, only
        when non-zero, on the antisymmetric one, both expanded back to every
        position.  Any other block carries the real and imaginary parts of
        its vector as two columns.
        """
        (closure, gens), samples = self._generators[b], step_index.size
        phase = _atom_phases(self.blocks[b], self.truncation)
        v = v * phase
        if closure is None:  # the real and imaginary parts as two columns
            block, sizes = self._advance((b, 0), gens[0],
                                         v.view(float).reshape(-1, 2),
                                         levels, step_index)
            rotated = block.view(complex).reshape(samples, phase.size)
        else:
            upper, twin = closure
            pair = upper != twin
            rotated = np.zeros((samples, phase.size), dtype=complex)
            x, sizes = self._advance((b, 0), gens[0],
                                     0.5 * (v.real[upper] + v.real[twin]),
                                     levels, step_index)
            rotated.real[:, upper] = rotated.real[:, twin] = x
            y = 0.5 * (v.imag[upper[pair]] - v.imag[twin[pair]])
            if y.any():
                y, more = self._advance((b, 1), gens[1], y, levels, step_index)
                rotated.imag[:, upper[pair]] = y
                rotated.imag[:, twin[pair]] = -y
                sizes += more
        return rotated * phase.conj(), sizes

    def run(self, v0, start, times):
        """Trajectory of vec(rho) = v0 at `start` over the sorted `times`.

        Only the filled blocks, all of k >= 0, are propagated: v0 on k < 0
        is read as the conjugate transpose of its k > 0 part.  The blocks
        that hold the populations are propagated here, for the trace drift
        (see `_check_drift`), the others when a read first touches them.
        The INFO log names the size of each block propagated here, the
        number of expm builds and the size of each matrix exponentiated
        (3 N + 2 for the k = 0 block's real part); later ones log at DEBUG.
        """
        levels, step_index = _step_groups(np.diff(np.r_[start, times]))
        traj = Trajectory(times, self, v0, levels, step_index)
        every = np.arange(2 * (self.truncation + 1))
        diagonal = every * every.size + every
        traj._fill(self.owner[diagonal], logging.INFO)
        _check_drift(traj.entries(every, every).real.sum(axis=1)
                     - v0[diagonal].real.sum())
        return traj


def integrate_trajectory(rho0, jc, damping, times):
    """Propagate the master equation exactly to each time, as a
    `Trajectory`.  The blocks that hold the populations are propagated
    here, every other filled block when the trajectory is first read there
    (see `_BlockPropagator.run`), so a reader of k = 0 entries
    (populations, P_+, F_n) pays for the k = 0 block alone."""
    _instance(rho0, "rho0", DensityMatrix)
    _instance(jc, "jc", JCParams)
    _instance(damping, "damping", DampingParams)
    times = _check_times(times, rho0.time)
    v0 = rho0.matrix.reshape(-1)
    prop = _BlockPropagator(jc, damping, rho0.truncation, v0)
    return prop.run(v0, rho0.time, times)


# ---------------------------------------------------------------------------
# observable extraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleObservables:
    """Like-for-like quantities extracted from an oracle trajectory; f
    covers the dressed doublets n = 0..truncation-1 of the truncated space."""

    times: np.ndarray
    p_plus: np.ndarray
    f: np.ndarray
    f_ground: np.ndarray


def oracle_observables(trajectory, jc):
    """P_+, dressed F_n and F_{-1} per sample, read from the diagonal of a
    `Trajectory`, whose entries have coherence order k = 0.  With
    a = |n, +> and b = |n+1, ->: F_n = rho_aa + rho_bb,
    F_{-1} = 2 rho(|0, ->) and P_+ = sum_n rho(|n, +>).

    None of these depends on g: jc is only checked to be a `JCParams`, and
    stays because benchmarks/workloads.py passes it (ROADMAP item 12 drops
    it with the benchmark's next change, item 2).
    """
    _instance(trajectory, "trajectory", Trajectory)
    _instance(jc, "jc", JCParams)
    trunc = trajectory.truncation
    every = np.arange(2 * (trunc + 1))
    diag = trajectory.entries(every, every).real
    a = 2 * np.arange(trunc)  # |n, +>
    b = a + 3                 # |n+1, ->
    return OracleObservables(times=np.array(trajectory.times),
                             p_plus=diag[:, 0::2].sum(axis=1),
                             f=diag[:, a] + diag[:, b],
                             f_ground=2.0 * diag[:, 1])


def joint_probability_oracle(rho0, jc, damping, t_a, t_b, s1, s2):
    """Two-atom joint probability by explicit sequential integration: atom
    1 evolves with the field to t_A and is projected onto s1 (keeping the
    unnormalized weight), then a fresh excited atom evolves with the
    conditioned field to t_B, where s2 is read off.  Each passage reads just
    the atom sector's populations, so it propagates the k = 0 block alone
    (on the 3 N + 2 real parts of its Hermitian closure, as neither start
    has an imaginary part), and the second starts from their diagonal.
    Both share that block's generators and one expm per distinct step
    length, so t_B = 2 t_A from rho0 at time 0 takes a single expm; neither
    builds a dense density matrix.
    """
    _check_outcome(s1, "s1")
    _check_outcome(s2, "s2")
    _instance(rho0, "rho0", DensityMatrix)
    _instance(jc, "jc", JCParams)
    _instance(damping, "damping", DampingParams)
    t_a, t_b = _check_times([_times(t, one=True) for t in (t_a, t_b)],
                            rho0.time)
    v0 = rho0.matrix.reshape(-1)
    prop = _BlockPropagator(jc, damping, rho0.truncation, v0)

    def populations(v, start, end, outcome):
        sector = 2 * np.arange(rho0.truncation + 1) + (outcome == "-")
        return prop.run(v, start, np.array([end])).entries(sector, sector)[-1]

    field = populations(v0, rho0.time, t_a, s1)
    if field.sum().real <= 0.0:
        return 0.0
    v_b = np.kron(np.diag(field), _EXCITED).reshape(-1)
    return float(populations(v_b, t_a, t_b, s2).sum().real)


# ---------------------------------------------------------------------------
# appendix equation residuals
# ---------------------------------------------------------------------------

def w_equation_residuals(window, jc, damping):
    """Largest residual of the dressed-frame equations of motion on a window
    of samples, and the largest |W| entry it saw.

    `window` is a `Trajectory` at strictly increasing times whose steps
    equal their mean dt = (t_last - t_first) / (len - 1) to SPACING_RTOL
    relative, with dt * g < 0.1, and `damping` the DampingParams the
    equations assume.  W(t) = e^{iHt} rho(t) e^{-iHt} is, in the
    interaction picture, rho in `dressed.dressed_basis` conjugated by the
    phases e^{i g sqrt(n+1) t} of the coupling.  Time derivatives use a
    fourth-order centered stencil, at interior samples 2..len-3.  The
    right-hand side is the dissipator conjugated into the rotating dressed
    frame, assembled from `dressed.dressed_annihilation` and the explicit
    oscillatory phase factors; it shares no code with `liouvillian`, so the
    check stays independent of the propagation.  The residual is read on
    the doublet diagonals, <psi_n^+|W|psi_n^-> and the ground sector.  These
    and the largest |W| entry (a diagonal one) have coherence order k = 0,
    and the k = 0 part of W is closed under the equations (the dressed
    basis mixes states of one excitation number, and a lowers it on both
    sides), so W is built from the window's k = 0 entries alone and the
    window propagates its k = 0 block alone.

    Returns (largest absolute residual, largest absolute W entry).
    """
    _instance(window, "window", Trajectory)
    _instance(jc, "jc", JCParams)
    _instance(damping, "damping", DampingParams)
    times = window.times
    if times.size < 5:
        raise ValueError("need at least 5 uniformly spaced samples")
    dt = (times[-1] - times[0]) / (times.size - 1)
    if not (dt > 0.0 and np.all(
            np.abs(np.diff(times) - dt) <= SPACING_RTOL * dt)):
        raise ValueError("window times must increase at a uniform spacing")
    if dt * jc.g >= 0.1:
        raise ValueError("the window spacing times g must be below 0.1 for "
                         "the secular part")
    trunc = window.truncation
    a_base = dressed_annihilation(trunc)
    k, nb = damping.kappa, damping.n_thermal
    dim = 2 * (trunc + 1)
    k0 = np.divmod(np.flatnonzero(_block_labels(trunc) == 0), dim)
    w = np.zeros((times.size, dim, dim), dtype=complex)
    w[:, k0[0], k0[1]] = window.entries(*k0)
    u, rabi = dressed_basis(trunc)
    phases = np.exp(1j * (jc.g * rabi) * times[:, None])
    w = phases[:, :, None] * (u.T @ w @ u) * phases.conj()[:, None, :]

    n = np.arange(trunc)
    plus, minus = 1 + 2 * n, 2 + 2 * n  # columns of psi_n^+ and psi_n^-
    rows = np.r_[plus, minus, 0, plus]
    cols = np.r_[plus, minus, 0, minus]
    worst = w_norm = 0.0
    for i in range(2, times.size - 2):
        w_norm = max(w_norm, np.abs(w[i]).max())
        a_t = phases[i][:, None] * a_base * phases[i].conj()[None, :]
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
    the field rho_C under pure cavity decay, at each of the sorted `times`
    from the cat `spec` at 0; the probes follow the decaying branch
    amplitude, so plain energy decay does not masquerade as decoherence.

    With the coupling off the atom stays in |+><+|, so the field runs alone
    on `_triplets` without the coupling at the "+" positions (2 n, 2 m).
    Each diagonal d = m - n >= 0, the entries (n, n + d), is a real block,
    propagated only when the cat fills it (an even cat fills even d), its
    real and imaginary parts as two columns, with one expm per distinct
    step, built at the step's first use and dropped after its last; each
    step's products run over the diagonals stacked and zero-padded.  With
    real probes w, diagonal d adds sum_n w_n w_(n+d) (-1)^n times rho_nn
    (d = 0), twice Re rho_(n,n+d) (even d) or -2i Im rho_(n,n+d) (odd d).
    The d = 0 trace drift raises beyond 10*DEFAULT_TOL.  The INFO log names
    the truncation, the diagonals' sizes and the expm builds.
    """
    _instance(spec, "spec", CatSpec)
    _instance(damping, "damping", DampingParams)
    size = _count(truncation, "truncation", 1) + 1
    times = _check_times(times, 0.0)
    amp = cat_state_vector(spec, truncation)
    n, m = np.triu_indices(size)
    start = amp[n] * amp[m].conj()
    filled = np.unique((m - n)[start != 0])  # d = 0, the trace, first
    keep = np.isin(m - n, filled)
    n, m, start = n[keep], m[keep], start[keep]
    at = np.searchsorted(filled, m - n)  # each entry's diagonal; n its place
    rows, cols, vals = _triplets(None, damping, truncation,
                                 4 * size * n + 2 * m)
    gen = np.zeros((filled.size, size, size))
    gen[at[rows], n[rows], n[cols]] = vals
    v = np.zeros((filled.size, size, 2))
    v[at, n] = start.view(float).reshape(-1, 2)
    levels, step_index = _step_groups(np.diff(np.r_[0.0, times]))
    sizes = (size - filled).tolist()
    _LOG.info("oracle: truncation %d, field diagonal sizes %s, expm builds "
              "%d of sizes %s", truncation, sizes, levels.size * len(sizes),
              sizes * levels.size)
    odd = filled % 2
    parity = np.c_[(1 - odd) * np.where(filled > 0, 2.0, 1.0), -2.0 * odd]
    pair = np.minimum(np.arange(size) + filled[:, None], size)
    w, signs = np.zeros(size + 1), (-1.0) ** np.arange(size)  # w[N + 1] = 0
    trace, props = v[0, :, 0].sum(), {}
    out, traces = np.empty(times.size), np.empty(times.size)
    last = dict(zip(step_index.tolist(), range(times.size)))
    for i, (t, j) in enumerate(zip(times.tolist(), step_index.tolist())):
        if j >= 0 and j not in props:
            props[j] = np.zeros_like(gen)
            for prop, g, k in zip(props[j], gen, sizes):
                prop[:k, :k] = expm(levels[j] * g[:k, :k])
        if j >= 0:
            v = (props.pop(j) if last[j] == i else props[j]) @ v
        traces[i] = v[0, :, 0].sum()
        w[:size] = coherent_state_vector(spec.intensity * math.exp(
            -2.0 * damping.kappa * t), truncation).real
        weight = w[:size] * signs * w[pair]
        out[i] = math.hypot(*((weight[:, None, :] @ v)[:, 0] * parity).sum(
            axis=0))
    _check_drift(traces - trace)
    return out
