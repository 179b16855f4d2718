"""Test-session setup: one BLAS thread.

The oracle tests multiply many small dense blocks, where the hand-offs
between BLAS threads cost more than the products; on 2 vCPU the suite ran
15.3 s with the default threads and 10.6 s with one.  The variables are read
when NumPy loads its BLAS, which no plugin has done when pytest imports this
file, so they are set here; a value already in the environment is kept.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
