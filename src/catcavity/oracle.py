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
970, 2009), in the atom-phase frame rho' = S* rho S with
S = 1_field x diag(1, i).  The coupling links |n, +> only with |n+1, ->, so
S turns g (a sigma_+ + a* sigma_-) into i times a real antisymmetric matrix
and i [rho, H'] into a real map; a and a* act on the field alone and commute
with S, so both dissipators stay real, and so does every block.  Multiplying
by 1 or +/-i only moves and negates floats, so a rotated block holds
exactly the floats of `liouvillian` at its positions.

Every number the coupled oracle reports is a k = 0 entry: P_+, F_n, the
two-atom joint, the W-frame residuals and the trace.  The k = 0 block holds
the transpose (j, i) of each of its positions (i, j) and commutes with that
transposition, so rho' stays Hermitian: its real, symmetric part and its
imaginary, antisymmetric part evolve apart (Puri & Agarwal, PRA 33, 3610,
1986), on the 3 N + 2 positions with i <= j and the N with i < j, the second
only when the start has an imaginary part, which no cat or photon
distribution has.  One engine, `_Closure`, builds that block from its
positions alone and propagates the closure: `integrate_trajectory` stores
its samples in the `Trajectory`, and `joint_probability_oracle` runs both
passages on it.  The blocks of k != 0 are the cold path of `traj[i]`,
iteration and `Trajectory.entries` off k = 0: `Trajectory._block` builds
and propagates each block of k > 0 alone when such a read first touches
it.  The decoherence surrogate `branch_coherence_trajectory` runs the
uncoupled field alone, one real block per filled diagonal.

A block's rates and g are the only part of it that a run's parameters
change: its positions, the (row, col) pattern of its triplets and their
rate-free coefficients, the closure's layout and fold, and the field-only
run's diagonals depend on the truncation, on which rates are > 0 and on
whether the coupling is on.  Each builder of such a structure is keyed on
those few numbers alone and `_kept`: it keeps the structure, read-only, for
its last _KEPT_KEYS (4) keys, so that later calls at one truncation build
only their values and expm.  At N = 120 an entry of the k = 0 engine takes
at most 61 kB (`_closure_structure`), and one of the field-only run with
every diagonal filled 0.58 MB (`_field_structure`) and 0.42 MB
(`_field_layout`), so every builder together holds about 5 MB at most.  A
call that finds its structure kept computes the same floats as one that
builds it.  A single run gains nothing from the store, and costs what it
did without it.
"""

import functools
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
    _nonnegative(intensity, "intensity", one=True)
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

#: Keys for which each `_kept` builder holds its structure.
_KEPT_KEYS = 4


def _kept(build):
    """`build`, a function of the small hashable key of a rate-free
    structure that returns a tuple of arrays, kept for the last _KEPT_KEYS
    keys (`functools.lru_cache`, which threads may share) with every array
    read-only."""
    @functools.lru_cache(maxsize=_KEPT_KEYS)
    @functools.wraps(build)
    def kept(*key):
        value = build(*key)
        for array in value:
            array.flags.writeable = False
        return value
    return kept


def _rates(damping):
    """The rates of the two jumps, kappa (n_b + 1) of a and kappa n_b of
    a*."""
    k, nb = damping.kappa, damping.n_thermal
    return k * (nb + 1.0), k * nb


def _active(damping):
    """Which of the two jumps of `_rates` have a rate > 0."""
    return tuple(rate > 0 for rate in _rates(damping))


def _structure(truncation, positions, coupled, active):
    """The rate-free part of `_triplets` on `positions`: rows, cols, the
    number sums (J*J)_ii + (J*J)_jj of the diagonal, the signed coupling
    roots, and each jump's sandwich products, for the jumps that `active`
    marks (the others get zero sums and no products)."""
    dim = 2 * (truncation + 1)
    i, j = np.divmod(positions, dim)
    every = np.arange(dim)
    root = np.sqrt(every // 2 + 1.0)  # a takes |n+1, s> to root |n, s>
    rows, cols, roots = [], [], np.zeros(0)
    if coupled:
        # g sqrt(n + 1) between |n, +> and |n + 1, ->, both ways; i rho H'
        # reads (i, partner of j), and -i H' rho (partner of i, j)
        plus, minus = slice(0, dim - 2, 2), slice(3, dim, 2)
        partner, factor = np.full(dim, -1), np.zeros(dim)
        partner[plus], partner[minus] = every[minus], every[plus]
        factor[plus] = factor[minus] = root[plus]
        of_j, of_i = partner[j], partner[i]
        by_col, by_row = (of_j >= 0).nonzero()[0], (of_i >= 0).nonzero()[0]
        rows += [by_col, by_row]
        cols += [i[by_col] * dim + of_j[by_col],
                 of_i[by_row] * dim + j[by_row]]
        roots = np.concatenate([factor[j[by_col]], -factor[i[by_row]]])
    lo = every[:-2]  # |n, s> with n < N; a takes lo + 2 to lo
    sums, products = np.zeros((2, positions.size)), []
    for on, left, right, number in zip(active, (lo, lo + 2), (lo + 2, lo),
                                       sums):
        if not on:
            products.append(np.zeros(0))
            continue
        # J = sum root |left><right|, so J*J = diag(root^2) on right
        square, amp, source = np.zeros(dim), np.zeros(dim), np.full(dim, -1)
        square[right], amp[left], source[left] = root[lo] ** 2, root[lo], right
        np.add(square[i], square[j], out=number)
        from_i, from_j = source[i], source[j]
        both = ((from_i >= 0) & (from_j >= 0)).nonzero()[0]
        rows.append(both)
        cols.append(from_i[both] * dim + from_j[both])
        products.append(amp[i[both]] * amp[j[both]])
    # a positive rate times a positive sum is never zero
    nz = sums.any(axis=0).nonzero()[0]
    cols = np.concatenate(
        [nz, np.searchsorted(positions, np.concatenate(cols))])
    return np.concatenate([nz] + rows), cols, sums[:, nz], roots, *products


def _triplets(jc, damping, truncation, positions, structure=None):
    """The Liouvillian of `liouvillian` on the ascending vec(rho)
    `positions`, a set it maps into itself (blocks, or every position), as
    (rows, cols, values) arrays whose rows and cols index `positions`.

    Under row-major vectorization entry (i, j) of A rho B reads A_ik B_lj
    from entry (k, l), so the triplets are the non-zero diagonal
    -sum rate ((J*J)_ii + (J*J)_jj), the coupling once from each side of
    the commutator, and each jump's sandwich shifted one photon along both
    indices.  No (row, col) pair appears twice.

    Everything but the rates and g depends only on the truncation, the
    positions, whether the coupling is on and which rates are > 0 (a
    kappa n_b that underflows to 0 drops the a* jump, as n_b = 0 does):
    that is the `structure` (see `_structure`), which a caller that keeps
    it for those positions, that coupling and `_active(damping)` passes
    in, and which is built here otherwise.  Each call multiplies in its
    rates and g alone, in the order of a build from scratch, so every value
    has the same bits; the rows and cols returned are the structure's.
    """
    rates = _rates(damping)
    if structure is None:
        structure = _structure(truncation, positions, jc is not None,
                               _active(damping))
    rows, cols, sums, roots, *products = structure
    diag, jumps = np.zeros(sums.shape[1]), []
    for rate, number, product in zip(rates, sums, products):
        if rate > 0:
            diag -= rate * number
            jumps.append(2.0 * rate * product)
    couplings = [] if jc is None else [1j * jc.g * roots]
    return rows, cols, np.concatenate([diag] + couplings + jumps)


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


def _block_positions(truncation, k):
    """The ascending vec(rho) positions of the block of coherence order
    k >= 0, computed from (n, s) with no labels: row |n_i, s_i> meets the
    states of excitation number m_i - k, |m_i - k - 1, +> and then
    |m_i - k, ->, where they exist."""
    dim = 2 * (truncation + 1)
    every = np.arange(dim)
    plus = every - 3 * (every % 2) - 2 * k  # |m_i - k - 1, +>
    j = (plus[:, None] + (0, 3)).ravel()  # and |m_i - k, -> after it
    keep = (j >= 0) & (j < dim)
    return (every.repeat(2) * dim + j)[keep]


_ATOM = np.array([1.0, 1j])  # s of |n, +> and |n, ->


def _atom_phases(positions, truncation):
    """d at the vec(rho) `positions`, where vec(S* rho S) = d * vec(rho) for
    S = 1_field x diag(1, i): d_(i,j) = conj(s_i) s_j, each exactly 1, i or
    -i."""
    i, j = np.divmod(positions, 2 * (truncation + 1))
    return _ATOM.conj()[i % 2] * _ATOM[j % 2]


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


def _advance(props, v, step_index):
    """v after each sample's step, as a (samples,) + v.shape array: sample i
    is one product with props[step_index[i]] (none for index -1) after
    sample i - 1."""
    out = np.empty((step_index.size,) + v.shape)
    for i, j in enumerate(step_index):
        if j >= 0:
            v = props[j] @ v
        out[i] = v
    return out


@_kept
def _closure_layout(truncation):
    """The rate-free layout of `_Closure`: the positions of the k = 0 block,
    the upper ones and their twins, which of those are pairs, the column of
    x that each position belongs to, and the atom phases."""
    dim = 2 * (truncation + 1)
    positions = _block_positions(truncation, 0)
    i, j = np.divmod(positions, dim)
    upper = (i <= j).nonzero()[0]
    twin = np.searchsorted(positions, j[upper] * dim + i[upper])
    column = np.empty(positions.size, dtype=int)
    column[twin] = column[upper] = np.arange(upper.size)
    return (positions, upper, twin, upper != twin, column,
            _atom_phases(positions, truncation))


@_kept
def _closure_structure(truncation, active):
    """The `_structure` of the coupled k = 0 block with the jumps that
    `active` marks."""
    return _structure(truncation, _closure_layout(truncation)[0], True,
                      active)


@_kept
def _closure_fold(truncation, active, part):
    """The triplets of the k = 0 block that land in G_s (part 0) or G_a
    (part 1), their flat index there and the factor that rotates each into
    the atom-phase frame (see `_atom_phases`) with its sign: a row of an
    upper position (of a pair's, for G_a) adds into the column of x (of y)
    that its col belongs to, for G_a minus where the col is a twin."""
    positions, upper, twin, pair, column, phase = _closure_layout(truncation)
    rows, cols = _closure_structure(truncation, active)[:2]
    size = positions.size
    row, col, sign = np.full(size, -1), column, np.ones(size)
    lead = upper
    if part:
        lead, twin = upper[pair], twin[pair]
        col, sign = np.full(size, -1), np.zeros(size)
        col[lead] = col[twin] = np.arange(lead.size)
        sign[lead], sign[twin] = 1.0, -1.0
    row[lead] = np.arange(lead.size)
    at = ((row[rows] >= 0) & (col[cols] >= 0)).nonzero()[0]
    rows, cols = rows[at], cols[at]
    return (at, row[rows] * lead.size + col[cols],
            phase[rows] * phase[cols].conj() * sign[cols])


class _Closure:
    """The coherence-order k = 0 block of one coupled Liouvillian on its
    Hermitian closure, the engine of every k = 0 read.

    The block pairs the basis states of one excitation number m: each
    |n, +> with its coupling partner |n+1, ->, and |0, -> and |N, +> alone,
    4 N + 2 positions of vec(rho), ascending in `positions`.  It holds the
    transpose (j, i) of each of its (i, j) and commutes with that
    transposition, so in the atom-phase frame (see `_atom_phases`) the real
    parts x of its 3 N + 2 positions with i <= j evolve by themselves under
    the symmetric generator G_s, whose column is G[:, a] + G[:, twin(a)] for
    a pair and G[:, a] on the diagonal, and the imaginary parts y of its N
    pairs under the antisymmetric G_a, column G[:, a] - G[:, twin(a)] (Puri
    & Agarwal, PRA 33, 3610, 1986).  The block comes from one `_triplets`
    call; G_s is folded from it on first use and G_a only for a start with
    an imaginary part, each triplet rotated into that frame, where it is
    real, as it is folded, and each is kept with one expm per distinct step
    length, for every run on the engine.

    Only the rates, the block's values and the expm are built per engine.
    The layout (`positions`, `upper`, `twin`, `pair`, `column`, `phase`) is
    kept per truncation (`_closure_layout`), and the triplet structure
    (`_closure_structure`) and the map of each triplet into G_s or G_a
    (`_closure_fold`) per truncation and set of rates > 0; at N = 120 they
    take about 22 kB, 60 kB and 58 kB (G_s).
    """

    def __init__(self, jc, damping, truncation):
        self.truncation = truncation
        (self.positions, self.upper, self.twin, self.pair, self.column,
         self.phase) = _closure_layout(truncation)
        self._active = _active(damping)
        self._block = _triplets(jc, damping, truncation, self.positions,
                                _closure_structure(truncation, self._active))
        self._generators = {}  # 0 for G_s, 1 for G_a
        self._props = {}  # (0 or 1, step length) -> expm

    def diagonal(self, states):
        """The block positions of rho(|s>, |s>) for each of the basis state
        numbers `states`."""
        dim = 2 * (self.truncation + 1)
        return np.searchsorted(self.positions, states * (dim + 1))

    def start(self, v):
        """(x, y) of the Hermitian part of the whole vec(rho) v."""
        upper, twin, pair = self.upper, self.twin, self.pair
        v = v[self.positions] * self.phase
        return (0.5 * (v.real[upper] + v.real[twin]),
                0.5 * (v.imag[upper[pair]] - v.imag[twin[pair]]))

    def _generator(self, part):
        """G_s (part 0) or G_a (part 1), folded from the block on first
        use: each entry is the sum of the (at most two) rotated triplets
        that the kept fold map sends there.  A rotation by 1 or +/-i and a
        sign only move and negate floats, and a sum of two floats does not
        depend on their order, so these are the floats of the dense fold
        of the rotated block."""
        if part not in self._generators:
            at, target, factor = _closure_fold(self.truncation, self._active,
                                               part)
            size = np.count_nonzero(self.pair) if part else self.upper.size
            self._generators[part] = np.bincount(
                target, (self._block[2][at] * factor).real,
                size * size).reshape(size, size)
        return self._generators[part]

    def _run_part(self, part, v, levels, step_index, built):
        """v after each sample's step under G_s or G_a, with the size of
        each expm it builds added to `built`."""
        gen = self._generator(part)
        for level in levels:
            if (part, level) not in self._props:
                self._props[part, level] = expm(level * gen)
                built.append(gen.shape[0])
        return _advance([self._props[part, level] for level in levels], v,
                        step_index)

    def run(self, x, y, levels, step_index):
        """x and y after each sample's step, one step of length
        levels[step_index[i]] (none for index -1) after sample i - 1, as
        (samples, size) arrays; y is None where it is None or zero at the
        start.  Logs at INFO the truncation, the block's size and the size
        of each expm it built."""
        built = []
        x = self._run_part(0, x, levels, step_index, built)
        if y is not None and y.any():
            y = self._run_part(1, y, levels, step_index, built)
        else:
            y = None
        _LOG.info("oracle: truncation %d, propagated block sizes %s, expm "
                  "builds %d of sizes %s", self.truncation,
                  [self.positions.size], len(built), built)
        return x, y

    def read(self, x, y, local):
        """The bare-basis entries at the block positions `local` of each
        sample of x and y (None for zero), as a C-ordered (samples,
        local.size) complex array, so that a sum over the entries of each
        sample runs in the same order as over a dense matrix: x and y
        expanded to every position, the entries of a transposed pair as
        exact conjugates, and rotated back out of the atom-phase frame."""
        rotated = np.zeros((x.shape[0], self.positions.size), dtype=complex)
        rotated.real[:, self.upper] = rotated.real[:, self.twin] = x
        if y is not None:
            rotated.imag[:, self.upper[self.pair]] = y
            rotated.imag[:, self.twin[self.pair]] = -y
        return np.take(rotated * self.phase.conj(), local, axis=1)


class Trajectory(Sequence):
    """The samples of one oracle run, as a read-only sequence; what
    `integrate_trajectory` returns.

    It holds the k = 0 closure x (and y) of every sample, and reads any
    rho_ij through `entries`: a k = 0 entry from the closure, any other
    from the block of coherence order |k| > 0.  Those blocks are the cold
    path, for `traj[i]`, iteration and `entries` off k = 0 alone: `_block`
    propagates each from `rho0.matrix`, which the trajectory keeps by
    reference, when a read first touches it.  Every library reader reads
    k = 0 entries and counts the samples with `times.size`.  `traj[i]`,
    iteration and `len(traj)` (the `Sequence` protocol) build dense
    DensityMatrix samples that nothing keeps, for the oracle check of
    `benchmarks/workloads.py` alone.
    """

    def __init__(self, times, closure, x, y, start):
        self.times = times
        self.truncation = closure.truncation
        self._closure, self._x, self._y = closure, x, y
        self._start = start  # (jc, damping, v0, levels, step_index)
        self._blocks = {}  # k -> (positions, values or None)
        times.flags.writeable = False

    def _block(self, k):
        """The ascending vec(rho) positions of the block of coherence order
        k > 0 and its (samples, size) entries, None where rho0 leaves it
        empty, propagated on first use and stored.  The block is built
        alone, by one `_triplets` call, and is real in the atom-phase frame,
        so its real and imaginary parts run as two columns, with one expm
        per distinct step; it logs its size and expm builds at DEBUG."""
        if k not in self._blocks:
            jc, damping, v0, levels, step_index = self._start
            trunc = self.truncation
            positions = _block_positions(trunc, k)
            phase = _atom_phases(positions, trunc)
            v = v0[positions] * phase
            values = None
            if v.any():
                rows, cols, vals = _triplets(jc, damping, trunc, positions)
                gen = np.zeros((positions.size,) * 2)
                gen[rows, cols] = (vals * phase[rows]
                                   * phase[cols].conj()).real
                block = _advance([expm(level * gen) for level in levels],
                                 v.view(float).reshape(-1, 2), step_index)
                values = (block.view(complex).reshape(step_index.size, -1)
                          * phase.conj())
                values.flags.writeable = False
                _LOG.debug("oracle: truncation %d, propagated block sizes %s, "
                           "expm builds %d of sizes %s", trunc,
                           [positions.size], levels.size,
                           [positions.size] * levels.size)
            self._blocks[k] = positions, values
        return self._blocks[k]

    def __len__(self):
        return self.times.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]
        dim = 2 * (self.truncation + 1)
        m = np.zeros(dim * dim, dtype=complex)
        for k in range(1, self.truncation + 2):
            positions, values = self._block(k)
            if values is not None:
                m[positions] = values[i]
        k0 = self._closure
        m[k0.positions] = k0.read(
            self._x[i:i + 1], None if self._y is None else self._y[i:i + 1],
            np.arange(k0.positions.size))[0]
        m = m.reshape(dim, dim)
        m[self._lower] = m.T.conj()[self._lower]
        return DensityMatrix(matrix=m, time=float(self.times[i]))

    @functools.cached_property
    def _lower(self):
        """Where the coherence order k < 0, as a (2 N + 2)^2 mask."""
        dim = 2 * (self.truncation + 1)
        return (_block_labels(self.truncation) < 0).reshape(dim, dim)

    def entries(self, rows, cols):
        """rho_(rows, cols) of every sample, with shape (times.size,) + the
        broadcast shape of the two integer index arrays; an array of bools
        or floats raises TypeError.  An entry of a block that rho0 leaves
        empty is zero, and one of coherence order k < 0 is the conjugate of
        its transpose."""
        dim = 2 * (self.truncation + 1)
        rows, cols = np.broadcast_arrays(rows, cols)
        if rows.dtype.kind not in "iu" or cols.dtype.kind not in "iu":
            raise TypeError("rows and cols must be a pair of integer arrays, "
                            f"got {rows.dtype} and {cols.dtype}")
        if not (np.all((0 <= rows) & (rows < dim))
                and np.all((0 <= cols) & (cols < dim))):
            raise IndexError(f"entries lie outside the {dim} x {dim} matrix")
        shape = rows.shape
        rows, cols = rows.astype(int).ravel(), cols.astype(int).ravel()
        pos = rows * dim + cols
        k0 = self._closure
        local = np.minimum(np.searchsorted(k0.positions, pos),
                           k0.positions.size - 1)
        here = k0.positions[local] == pos
        if here.all():
            out = k0.read(self._x, self._y, local)
        else:
            out = np.zeros((self.times.size, pos.size), dtype=complex)
            out[:, here] = k0.read(self._x, self._y, local[here])
            k = _block_labels(self.truncation)[pos]
            lower = k < 0
            pos[lower] = (cols * dim + rows)[lower]
            for order in np.unique(np.abs(k[~here])).tolist():
                positions, values = self._block(order)
                if values is not None:
                    at = np.flatnonzero(np.abs(k) == order)
                    out[:, at] = values[:, np.searchsorted(positions,
                                                           pos[at])]
            out[:, lower] = out[:, lower].conj()
        return out.reshape((self.times.size,) + shape)


def integrate_trajectory(rho0, jc, damping, times):
    """Propagate the master equation exactly to each time, as a
    `Trajectory`.  The run propagates the k = 0 block alone, on its
    Hermitian closure (see `_Closure`), which holds every population, so a
    reader of k = 0 entries (populations, P_+, F_n) pays for that block
    alone, whatever the initial state; the trace drift (see `_check_drift`)
    is read from it.  Every other block that rho0 fills, of k > 0 (k < 0
    read as the conjugate transpose), is built and propagated alone when a
    read of the trajectory first touches it (see `Trajectory._block`).
    The INFO log names the size of the k = 0 block, the number of expm
    builds and the size of each matrix exponentiated (3 N + 2 for the real
    parts); each block propagated later logs one line at DEBUG.
    """
    _instance(rho0, "rho0", DensityMatrix)
    _instance(jc, "jc", JCParams)
    _instance(damping, "damping", DampingParams)
    times = _check_times(times, rho0.time)
    steps = _step_groups(np.diff(np.r_[rho0.time, times]))
    closure = _Closure(jc, damping, rho0.truncation)
    v0 = rho0.matrix.reshape(-1)
    x0, y0 = closure.start(v0)
    x, y = closure.run(x0, y0, *steps)
    diagonal = closure.column[closure.diagonal(
        np.arange(2 * (rho0.truncation + 1)))]
    _check_drift(x[:, diagonal].sum(axis=1) - x0[diagonal].sum())
    return Trajectory(times, closure, x, y, (jc, damping, v0, *steps))


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
    `Trajectory`, whose entries have coherence order k = 0 and so come from
    its closure alone.  With
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
    the atom sector's populations, so both run on one k = 0 engine (see
    `_Closure`): the first from the closure of rho0, the second from the
    real parts alone, the conditioned populations on the excited sector's
    diagonal.  They share that block's generator and one expm per distinct
    step length, so t_B = 2 t_A from rho0 at time 0 takes a single expm;
    neither builds a `Trajectory`, a dense density matrix or a start vector
    over every position.
    """
    _check_outcome(s1, "s1")
    _check_outcome(s2, "s2")
    _instance(rho0, "rho0", DensityMatrix)
    _instance(jc, "jc", JCParams)
    _instance(damping, "damping", DampingParams)
    t_a, t_b = _check_times([_times(t, one=True) for t in (t_a, t_b)],
                            rho0.time)
    closure = _Closure(jc, damping, rho0.truncation)
    excited = 2 * np.arange(rho0.truncation + 1)  # |n, +>

    def populations(x, y, start, end, outcome):
        """The atom sector's populations at `end`, complex as `entries`
        reads them, so that their sums round alike."""
        x, _ = closure.run(x, y, *_step_groups(np.array([end - start])))
        sector = closure.diagonal(excited + (outcome == "-"))
        return closure.read(x[-1:], None, sector)[0]

    field = populations(*closure.start(rho0.matrix.reshape(-1)), rho0.time,
                        t_a, s1)
    if field.sum().real <= 0.0:
        return 0.0
    x = np.zeros(3 * rho0.truncation + 2)  # the real parts of the closure
    x[closure.column[closure.diagonal(excited)]] = field.real
    return float(populations(x, None, t_a, t_b, s2).sum().real)


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
    sides), so W is built from the window's k = 0 entries alone, which it
    reads from its closure, with no block of k != 0.

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
    k0 = np.divmod(window._closure.positions, dim)
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

@_kept
def _upper_triangle(size):
    """The rows and columns of the upper triangle of a size x size
    matrix, row by row."""
    return np.triu_indices(size)


@_kept
def _field_layout(size, filled):
    """The rate-free layout of the field-only run over the ascending filled
    diagonals d (a tuple): of each of their entries (n, n + d), its index
    into the upper triangle, its row n, its diagonal, its vec(rho) position
    (2 n, 2 (n + d)), where its row starts in the zero-padded (diagonal,
    n, n') stack of generators, and whether d is odd; then each diagonal's
    factors on the real and the imaginary sum, and the partner n + d of each
    n (N + 1, a zero probe, past the end)."""
    n, m = _upper_triangle(size)
    filled = np.array(filled)
    keep = np.flatnonzero(np.isin(m - n, filled))
    n, m = n[keep], m[keep]
    at = np.searchsorted(filled, m - n)
    odd = filled % 2
    parity = np.c_[(1 - odd) * np.where(filled > 0, 2.0, 1.0), -2.0 * odd]
    return (keep, n, at, 4 * size * n + 2 * m, (at * size + n) * size,
            odd[at] == 1, parity,
            np.minimum(np.arange(size) + filled[:, None], size))


@_kept
def _field_structure(size, filled, active):
    """The `_structure` of the field-only run over the filled diagonals
    (see `_field_layout`), with the coupling off and the jumps that
    `active` marks."""
    return _structure(size - 1, _field_layout(size, filled)[3], False, active)


def branch_coherence_trajectory(spec, damping, times, truncation):
    """Cat branch coherence |<z e^{-kappa t}| rho_C |-z e^{-kappa t}>| of
    the field rho_C under pure cavity decay, at each of the sorted `times`
    from the cat `spec` at 0; the probes follow the decaying branch
    amplitude, so plain energy decay does not masquerade as decoherence.

    With the coupling off the atom stays in |+><+|, so the field runs alone
    on `_triplets` without the coupling at the "+" positions (2 n, 2 m).
    Each diagonal d = m - n >= 0, the entries (n, n + d), is a real block,
    propagated only when the cat fills it (an even cat fills even d), with
    one expm per distinct step, built at the step's first use and dropped
    after its last; each step's products run over the diagonals stacked and
    zero-padded.  With real probes w, diagonal d adds
    sum_n w_n w_(n+d) (-1)^n times rho_nn (d = 0), twice Re rho_(n,n+d)
    (even d) or -2i Im rho_(n,n+d) (odd d), so only that part of each
    diagonal is propagated.  The probes of all samples are computed in one
    array expression before the run, and each sample is contracted with
    them as it is reached, so that the run holds (times, N + 2) probe
    floats and (times, diagonals) sums, not the samples.  The d = 0 trace
    drift raises beyond 10*DEFAULT_TOL.  The INFO log names the truncation,
    the diagonals' sizes and the expm builds.

    The layout of the filled diagonals (`_field_layout`) is kept per
    truncation and set of filled diagonals, and their triplet structure
    (`_field_structure`) per those and set of rates > 0; at N = 120 with
    every diagonal filled they take about 0.42 MB and 0.58 MB.
    """
    _instance(spec, "spec", CatSpec)
    _instance(damping, "damping", DampingParams)
    size = _count(truncation, "truncation", 1) + 1
    times = _check_times(times, 0.0)
    amp = cat_state_vector(spec, truncation)
    n, m = _upper_triangle(size)
    start = amp[n] * amp[m].conj()
    filled = tuple(np.unique((m - n)[start != 0]).tolist())  # d = 0 first
    keep, n, at, positions, base, odd, parity, pair = _field_layout(size,
                                                                    filled)
    rows, cols, vals = _triplets(
        None, damping, truncation, positions,
        _field_structure(size, filled, _active(damping)))
    gen = np.zeros((len(filled), size, size))
    gen.reshape(-1)[base[rows] + n[cols]] = vals
    v = np.zeros((len(filled), size, 1))
    v[at, n, 0] = np.where(odd, start.imag[keep], start.real[keep])
    levels, step_index = _step_groups(np.diff(np.r_[0.0, times]))
    sizes = [size - d for d in filled]
    _LOG.info("oracle: truncation %d, field diagonal sizes %s, expm builds "
              "%d of sizes %s", truncation, sizes, levels.size * len(sizes),
              sizes * levels.size)
    # the probe of intensity I e^-x: log w_n = (log p_n(I) - x n
    # + I (1 - e^-x)) / 2, with p_n(I) the Poisson weight
    photons, decay = np.arange(size), 2.0 * damping.kappa * times
    w = np.zeros((times.size, size + 1))  # w_(N + 1) = 0
    w[:, :size] = np.exp(0.5 * (_log_poisson(spec.intensity, photons)
                                - decay[:, None] * photons
                                - spec.intensity * np.expm1(-decay)[:, None]))
    signed = w[:, :size] * (-1.0) ** photons
    trace, props = v[0].sum(), {}
    sums, traces = np.empty((times.size, len(filled))), np.empty(times.size)
    last = dict(zip(step_index.tolist(), range(times.size)))
    for i, j in enumerate(step_index.tolist()):
        if j >= 0 and j not in props:
            props[j] = np.zeros_like(gen)
            for prop, g, k in zip(props[j], gen, sizes):
                prop[:k, :k] = expm(levels[j] * g[:k, :k])
        if j >= 0:
            v = (props.pop(j) if last[j] == i else props[j]) @ v
        traces[i] = v[0].sum()
        sums[i] = (signed[i] * w[i, pair] * v[..., 0]).sum(axis=1)
    _check_drift(traces - trace)
    return np.hypot(*(sums @ parity).T)
