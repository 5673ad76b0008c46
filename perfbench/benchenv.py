"""Process settings shared by the benchmark's entry points."""

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def prepare():
    """Pin native thread pools to one thread and import xyreg from the
    checkout's ``src/``; raise ImportError when it is not there."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import xyreg

    where = Path(xyreg.__file__).resolve().parent
    if where != SRC / "xyreg":
        raise ImportError(f"xyreg imported from {where}, not from {SRC}")
