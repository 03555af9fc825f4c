"""Suite-wide set-up: one BLAS thread.

Gate values and recorded traces depend on the BLAS thread count beyond
roundoff (a blocked product sums in another order on more threads), so
the suite runs on one thread wherever it is started.  BLAS reads these
variables once, when numpy or scipy loads it, so they are set here,
before any test module imports either.
"""

import os
import sys

import pytest

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

# numpy or scipy loaded before this point would keep its own thread count
_BLAS_LOADED_EARLY = sorted({"numpy", "scipy"} & set(sys.modules))


@pytest.fixture(scope="session")
def blas_loaded_before_pin():
    """The packages among numpy and scipy that were imported before the
    thread count was pinned (none, when the pin is in effect)."""
    return _BLAS_LOADED_EARLY
