"""Fixed reference work that measures how fast the host runs right now.

Other tenants of a shared host slow this process's CPU by up to 1.7x, in
bursts from a fraction of a second to minutes, so the same pass can take
1.0 s in one run and 1.4 s in the next.  The benchmark splits every pass
into steps (one figure command, one oracle call, ten sweep configs), times
a reference kernel just before and just after every step (`StepTimer`) and
scales the step time by REF_SECONDS / (mean reference time); the speed
changes within a second, so the closer the references sit to the work they
scale, the more they cancel.  A reference only cancels the host's speed
for work that reacts to contention as it does, so each workload has its
own, built from the same operations as its hot loop:

- `ClosedForm`: a frozen copy of the closed-form F*_n(t) kernel at N = 120
  (log-gamma terms on an N x N grid, exponentials, one matrix-vector
  product), which is most of the `figures` pass;
- `Sweep`: the geometric mean of `ClosedForm` at N = 120 and at N = 200
  and `SmallArrays` (one small NumPy call after another), the kinds of work
  in a `sweep` pass: its large configurations run the kernel on grids of
  up to 201 x 201, its small ones are call overhead;
- `MasterEquation`: SciPy's DOP853 on a fixed sparse complex linear system
  of the oracle's N = 32 Liouvillian size, which is most of the `oracle`
  pass.

Set-up is timed in fresh interpreters, so its reference is one too:
`StartUp` imports NumPy and the SciPy modules catcavity uses, which is most
of a set-up.

None of them uses catcavity, so no change to the library changes them.
"""

import math
import subprocess
import sys
import time

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.special import gammaln


class ClosedForm:
    """Evaluations of the F*_n kernel at cutoff N, by default 32 at N = 120
    (the figures' nbar = 49)."""

    def __init__(self, size=120, nbar=49.0, evaluations=32,
                 ref_seconds=0.016):
        #: Tenth percentile of the times seen between the steps of benchmark
        #: runs on an Intel Xeon at 2.0 GHz under KVM (2 vCPUs), Python
        #: 3.11, NumPy 2.4, SciPy 1.17, one BLAS thread; scaled times read
        #: as seconds on that host when it is quiet.
        self.REF_SECONDS = ref_seconds
        self.evaluations = evaluations
        n = np.arange(size + 1, dtype=float)
        self.jj, self.nn = n[None, :], n[:, None]
        self.diff = self.jj - self.nn
        self.probs = np.exp(n * math.log(nbar) - nbar - gammaln(n + 1.0))

    def __call__(self):
        start = time.perf_counter()
        for k in range(self.evaluations):
            log_x = math.log(1e-3 * (k + 1))
            terms = np.where(
                self.diff > 0,
                gammaln(self.jj + 1.5) - gammaln(self.nn + 1.5)
                + self.diff * log_x - gammaln(self.diff + 1.0),
                0.0)
            kernel = np.where(self.diff >= 0, np.exp(terms), 0.0)
            (kernel @ self.probs).sum()
        return time.perf_counter() - start


class SmallArrays:
    """Photon-number distributions and weighted sums on arrays of 20 to 59
    entries, whose cost is the overhead of many small NumPy calls."""

    #: As for ClosedForm's REF_SECONDS.
    REF_SECONDS = 0.003

    def __call__(self):
        start = time.perf_counter()
        for k in range(240):
            n = np.arange(20 + k % 40, dtype=float)
            probs = np.exp(n * math.log(4.0) - 4.0 - gammaln(n + 1.0))
            probs /= probs.sum()
            float(np.dot(probs, np.cos(np.sqrt(n + 1.0) * 0.3 * k)))
        return time.perf_counter() - start


class Sweep:
    """The F*_n kernel at N = 120 and at N = 200 (nbar = 100, the sweep's
    largest configs, whose grids outgrow the smaller one's caches) and
    SmallArrays, back to back; the geometric mean of their times, so that
    each kind of slowdown moves it."""

    def __init__(self):
        self.parts = (ClosedForm(evaluations=16, ref_seconds=0.008),
                      ClosedForm(size=200, nbar=100.0, evaluations=6,
                                 ref_seconds=0.0077),
                      SmallArrays())
        self.REF_SECONDS = self._mean(part.REF_SECONDS for part in self.parts)

    def _mean(self, values):
        return math.prod(values) ** (1.0 / len(self.parts))

    def __call__(self):
        return self._mean(part() for part in self.parts)


class MasterEquation:
    """DOP853 over a fixed oscillating sparse system of dimension 4356."""

    #: As for ClosedForm's REF_SECONDS.
    REF_SECONDS = 0.024

    def __init__(self):
        dim = 4356
        offsets = (-66, -2, 2, 66)
        diagonals = [np.full(dim - abs(k), 1j * (1.0 + abs(k) % 7) * np.sign(k))
                     for k in offsets]
        self.matrix = sp.diags(diagonals, offsets, format="csr")
        self.y0 = np.zeros(dim, dtype=complex)
        self.y0[::67] = 1.0 / math.sqrt(len(self.y0[::67]))

    def __call__(self):
        start = time.perf_counter()
        solve_ivp(lambda _t, v: self.matrix @ v, (0.0, 0.5), self.y0,
                  method="DOP853", rtol=1e-8, atol=1e-11,
                  t_eval=np.linspace(0.0, 0.5, 5))
        return time.perf_counter() - start


class StartUp:
    """A fresh interpreter importing NumPy and SciPy's integrate, sparse and
    special modules; it exits without tearing them down."""

    #: As for ClosedForm's REF_SECONDS.
    REF_SECONDS = 0.5

    CODE = ("import os\n"
            "import numpy, scipy.integrate, scipy.sparse, scipy.special\n"
            "os._exit(0)\n")

    def __call__(self):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", self.CODE], capture_output=True,
                       timeout=120, check=True)
        return time.perf_counter() - start


class StepTimer:
    """Times steps of work, each scaled by the reference timed just before
    and just after it.

    The reference runs between steps, outside their times.  `raw` and
    `scaled` add up all step times so far; `last` and `last_scale` belong
    to the latest step.
    """

    def __init__(self, reference):
        self.reference = reference
        self.ref_before = reference()
        self.raw = self.scaled = self.last = 0.0
        self.last_scale = 1.0

    def step(self, fn):
        """Return fn(), timed as one step; its exception passes through."""
        start = time.perf_counter()
        try:
            return fn()
        finally:
            elapsed = time.perf_counter() - start
            ref_after = self.reference()
            self.last_scale = (2.0 * self.reference.REF_SECONDS
                               / (self.ref_before + ref_after))
            self.ref_before = ref_after
            self.last = elapsed * self.last_scale
            self.raw += elapsed
            self.scaled += self.last
