"""The suite runs on one BLAS thread (see conftest.py)."""

import ctypes
import glob
import os

import numpy as np
import pytest
import scipy

# bundled OpenBLAS builds and the name of their thread-count query
_OPENBLAS_QUERIES = ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads")


def _bundled_openblas_threads():
    """{library: thread count} for the OpenBLAS libraries that numpy and
    scipy ship in their wheels' ``.libs`` folders."""
    counts = {}
    for pkg in (np, scipy):
        libs = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)),
                            pkg.__name__ + ".libs")
        for path in glob.glob(os.path.join(libs, "*openblas*")):
            lib = ctypes.CDLL(path)  # the copy already loaded
            for name in _OPENBLAS_QUERIES:
                if hasattr(lib, name):
                    counts[os.path.basename(path)] = getattr(lib, name)()
                    break
    return counts


def test_blas_threads_are_pinned_to_one(blas_loaded_before_pin):
    assert blas_loaded_before_pin == []
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        assert os.environ[name] == "1"
    counts = _bundled_openblas_threads()
    if not counts:
        pytest.skip("numpy and scipy ship no OpenBLAS library here")
    assert set(counts.values()) == {1}, counts
