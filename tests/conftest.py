import ctypes
import sys
from pathlib import Path

import numpy as np
import pytest

# Tests import the shared oracle helpers as a plain module.
sys.path.insert(0, str(Path(__file__).resolve().parent))

# Property tests draw a fixed, bounded set of examples and keep no example
# database, so a run is repeatable and its time bounded. hypothesis is
# optional; its tests skip without it.
try:
    from hypothesis import settings
except ImportError:
    pass
else:
    settings.register_profile(
        "fedsim", derandomize=True, max_examples=60, deadline=None, database=None
    )
    settings.load_profile("fedsim")


def openblas():
    """numpy's bundled OpenBLAS, opened with ctypes, with its core-name and
    thread-count calls typed; None where numpy bundles no OpenBLAS that has
    them."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(str(lib_path))
            get_core = lib.scipy_openblas_get_corename64_
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get_core.argtypes, get_core.restype = [], ctypes.c_char_p
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return lib
    return None


@pytest.fixture
def one_blas_thread():
    """Run the test at one BLAS thread and restore the count after it.

    OpenBLAS splits a GEMM of more than 1,024 rows across threads, and under
    some kernels (Haswell) the split rounds differently, so a blocked pass
    and a single pass over such rows agree only at one thread count. Where
    numpy bundles no OpenBLAS, the test runs at whatever count the BLAS has.
    """
    lib = openblas()
    if lib is None:
        yield
        return
    before = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    yield
    lib.scipy_openblas_set_num_threads64_(before)
