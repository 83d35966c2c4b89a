"""Test-session setup: pin the BLAS library to one thread.

A desk run's weights depend on how many threads the BLAS library splits its
products over, so the acceptance figures (A05 among them) are only
comparable at a fixed thread count. perfbench measures on one thread, and
so does the test suite. OpenBLAS reads these variables once, when numpy
loads, so this file must run before anything imports numpy.
"""
import os
import sys

import pytest

if "numpy" in sys.modules:
    raise pytest.UsageError(
        "numpy was imported before conftest.py could set OPENBLAS_NUM_THREADS=1 and OMP_NUM_THREADS=1"
    )
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
