"""Pin the BLAS to one thread and put the source tree on PYTHONPATH.

OpenBLAS splits a GEMM differently at different thread counts, and the split
changes the last bits of the stacked averages, so the golden digests hold for
one BLAS build at one BLAS thread count. The variables are read when numpy
loads OpenBLAS; numpy is not imported yet when pytest loads this file. The
values match perfbench's pinned environment.

pytest's `pythonpath` setting only extends this process's sys.path; the CLI
tests run `python -m bitretrieve` in a child process, which reads the
environment instead.
"""

import os
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
