import ctypes
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import fedsim.experiment
from fedsim.data import Trajectory, synth_trajectories, write_csv

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


def prepare_clients_and_plans(config):
    """``prepare_clients(config)`` and the availability plan it drew for each
    client, in client order. A client keeps only the fates drawn from its
    plan, so the plans are recorded through a spy on ``_client_plan``."""
    plans = []
    client_plan = fedsim.experiment._client_plan

    def spy(*args):
        plans.append(client_plan(*args))
        return plans[-1]

    with mock.patch.object(fedsim.experiment, "_client_plan", spy):
        return fedsim.experiment.prepare_clients(config), plans


def write_ragged_fleet_csv(path) -> None:
    """32 whole vehicles for clients of two: 40 points at each even index and
    6 at each odd one, or 3 at an index of 3 mod 8. At seq_len=4 the four
    3-point vehicles hold no window, and the twelve clients of a 40-point and
    a 6-point vehicle keep a holdout that spans both."""
    trajectories = synth_trajectories(17, 32, 40, "sinusoid")
    lengths = [40 if i % 2 == 0 else 3 if i % 8 == 3 else 6 for i in range(len(trajectories))]
    write_csv(path, [
        Trajectory(t.vehicle_id, t.timestamps[:n], t.coords[:n])
        for t, n in zip(trajectories, lengths)
    ])


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
